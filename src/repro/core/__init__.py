"""MemXCT core: the memory-centric operator, preprocessing pipeline,
compute-centric baseline, dataset descriptors, and the high-level
reconstruction API."""

from .compxct import CompXCTOperator
from .datasets import CHORD_CONSTANT, DATASETS, TABLE3_PAPER, DatasetSpec, get_dataset, table3_row
from .operator import KERNELS, MemXCTOperator, OperatorConfig
from .preprocess import PreprocessReport, preprocess
from .reconstructor import ReconstructionResult, reconstruct

__all__ = [
    "CompXCTOperator",
    "CHORD_CONSTANT",
    "DATASETS",
    "TABLE3_PAPER",
    "DatasetSpec",
    "get_dataset",
    "table3_row",
    "KERNELS",
    "MemXCTOperator",
    "OperatorConfig",
    "PreprocessReport",
    "preprocess",
    "ReconstructionResult",
    "reconstruct",
]
