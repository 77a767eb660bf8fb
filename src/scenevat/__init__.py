"""Cluster-tendency analysis for labeled feature collections.

The pipeline: audio (or any feature matrix) -> pairwise dissimilarity ->
reordering that drags similar records together -> grayscale image whose
dark diagonal blocks are candidate clusters -> automatic block count.
"""

from .audio import (
    AudioClip,
    AudioConfig,
    decode_wav,
    extract_features,
    log_mel_mean,
    mel_filterbank,
    read_wav,
    resample,
    stft_power,
)
from .cce import CceConfig, CceReport, cce_count, otsu_effectiveness, otsu_threshold
from .errors import DegenerateImageError, InputError, NumericError
from .manifest import (
    CITIES,
    CITY_PALETTE,
    SCENE_PALETTE,
    SCENES,
    LabeledManifest,
    ManifestRecord,
    parse_dcase_filename,
    parse_manifest,
    read_manifest,
)
from .matrix import (
    check_dissim,
    euclidean_dissim,
    permute_matrix,
    validate_dissim,
    zscore,
)
from .report import ReportConfig, features_for_manifest, load_config, run_report
from .specvat import (
    SpecVatConfig,
    SpecVatResult,
    a_specvat_select_k,
    local_scale_affinity,
    normalized_affinity,
    spectral_embedding,
    specvat,
)
from .stacks import LabelStack, label_stack, stack_csv, stack_svg
from .synth import BlobSpec, block_dissim, gaussian_blobs
from .vat import (
    VatOrdering,
    odi_from,
    ordering_from_json,
    ordering_to_json,
    read_pgm,
    vat_image,
    vat_order,
    write_pgm,
)
from .vatf import read_vatf, write_vatf

__version__ = "0.1.0"

__all__ = [
    "AudioClip",
    "AudioConfig",
    "BlobSpec",
    "CITIES",
    "CITY_PALETTE",
    "CceConfig",
    "CceReport",
    "DegenerateImageError",
    "InputError",
    "LabelStack",
    "LabeledManifest",
    "ManifestRecord",
    "NumericError",
    "ReportConfig",
    "SCENES",
    "SCENE_PALETTE",
    "SpecVatConfig",
    "SpecVatResult",
    "VatOrdering",
    "a_specvat_select_k",
    "cce_count",
    "check_dissim",
    "decode_wav",
    "euclidean_dissim",
    "extract_features",
    "features_for_manifest",
    "gaussian_blobs",
    "block_dissim",
    "label_stack",
    "load_config",
    "local_scale_affinity",
    "log_mel_mean",
    "mel_filterbank",
    "normalized_affinity",
    "odi_from",
    "ordering_from_json",
    "ordering_to_json",
    "otsu_effectiveness",
    "otsu_threshold",
    "parse_dcase_filename",
    "parse_manifest",
    "permute_matrix",
    "read_manifest",
    "read_pgm",
    "read_vatf",
    "read_wav",
    "resample",
    "run_report",
    "spectral_embedding",
    "specvat",
    "stack_csv",
    "stack_svg",
    "stft_power",
    "validate_dissim",
    "vat_image",
    "vat_order",
    "write_pgm",
    "write_vatf",
    "zscore",
]
