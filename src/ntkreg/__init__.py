"""Noisy-label regularization toolkit.

Implements two regularizers for training on noisy labels, distance to
initialization and per-example auxiliary variables, verifies their exact
gradient-descent equivalence in the linearized (tangent) regime, relates
both to kernel ridge regression with the network's tangent kernel, and
evaluates the associated clean-distribution generalization bounds with
explicit constants.
"""

from ._kernelmatrix import KernelMatrix
from .bounds import (
    BoundConfig,
    BoundReport,
    bound_additive,
    bound_binary,
    bound_multiclass,
    empirical_clean_risk,
    lemma1_bound,
    lemma2_bound,
    quad_form_inv,
    ramp_loss,
)
from .data import (
    DataSet,
    load_mnist_binary,
    predicted_classes,
    prediction_error,
    split_dataset,
    synth_multiclass,
    synth_sphere,
)
from .errors import (
    DataFormatError,
    DivergenceError,
    EmptyDatasetError,
    SingularityError,
    ToolkitError,
    TrickViolationError,
    ValidationError,
)
from .kernel import (
    AnalyticNTK,
    EmpiricalNTK,
    analytic_ntk,
    arccos_kernel0,
    arccos_kernel1,
    empirical_ntk,
)
from .krr import (
    KRRPredictor,
    PSDSolver,
    export_predictions,
    krr_fit,
    rkhs_norm,
)
from .linmodel import (
    LinearizedModel,
    LinTrajectory,
    check_equivalence,
    closed_form_limit,
    linearize,
    run_gd_aux,
    run_gd_rdi,
)
from .net import (
    MLP,
    AuxState,
    NetConfig,
    TrainConfig,
    distance_to_init,
    forward,
    gradient,
    init_mlp,
    train_full,
)
from .noise import (
    AdditiveNoise,
    BinaryFlip,
    ClassTransition,
    corrupt,
    onehot,
    onehot_matrix,
    read_transition_csv,
    rescale_binary,
    validate_transition,
)

__version__ = "0.1.0"
