"""Transform-based signal decomposition: DWT/SWT and EMD.

Importing this package loads no scipy module: EMD, the only part that
needs scipy, imports it inside its envelope.
"""

from .emd import ImfSet, emd
from .wavelets import (
    WAVELETS,
    TransformError,
    WaveletDecomposition,
    dwt_level,
    idwt_level,
    iswt,
    levels_for_band,
    swt,
    swt_band_reconstruct,
    swt_bandpass,
    swt_level_band,
    wavedec,
    waverec,
)

__all__ = [
    "TransformError",
    "WAVELETS", "WaveletDecomposition", "dwt_level", "idwt_level",
    "wavedec", "waverec", "swt", "iswt", "swt_band_reconstruct", "swt_bandpass",
    "swt_level_band", "levels_for_band",
    "ImfSet", "emd",
]
