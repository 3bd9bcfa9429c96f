"""Post-hoc improvement of trained feedforward networks.

A trained network's features are lifted through a frozen random projection
and a sign-split ReLU, and only the output weight is retrained inside a
Frobenius-norm ball sized so the old predictions stay reachable. The final
training loss therefore never exceeds the original one.
"""

from .data import (FeatureBundle, SplitSpec, gen_digit_images, load_feature_bundle, load_idx,
                   save_feature_bundle, split, write_idx)
from .layer import GuaranteeReport, HeadConfig, RedenseLayer, build, predict, train
from .nn import (Activation, Dataset, EpochStats, Loss, MlpModel, TrainConfig,
                 accuracy, forward, loss_value, loss_value_and_grad,
                 make_loss, make_mlp, train_base)
from .persist import load_model, save_model, write_curve

__version__ = "0.1.0"

__all__ = [
    "Activation", "Dataset", "EpochStats", "FeatureBundle", "GuaranteeReport", "HeadConfig",
    "Loss", "MlpModel", "RedenseLayer", "SplitSpec", "TrainConfig",
    "accuracy", "build", "forward", "gen_digit_images", "load_feature_bundle", "load_idx",
    "load_model", "loss_value", "loss_value_and_grad", "make_loss", "make_mlp", "predict",
    "save_feature_bundle", "save_model", "split", "train", "train_base", "write_curve",
    "write_idx",
]
