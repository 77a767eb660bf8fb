"""Cluster-tendency analysis for labeled feature collections.

The pipeline: audio (or any feature matrix) -> pairwise dissimilarity ->
reordering that drags similar records together -> grayscale image whose
dark diagonal blocks are candidate clusters -> automatic block count.

Import from the submodules (``scenevat.vat``, ``scenevat.specvat``,
``scenevat.report``, ...); the package root holds only ``__version__``.
"""

__version__ = "0.1.0"
