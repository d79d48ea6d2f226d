"""Transform-based signal decomposition: STFT, DWT/SWT, EMD-HHT.

Importing this package loads no scipy module: EMD-HHT, the only part that
needs scipy, imports it inside the functions that call it.
"""

from .emd import ImfSet, emd, hht_spectrum
from .stft import Spectrogram, TransformError, stft
from .wavelets import (
    WAVELETS,
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
    "Spectrogram", "TransformError", "stft",
    "WAVELETS", "WaveletDecomposition", "dwt_level", "idwt_level",
    "wavedec", "waverec", "swt", "iswt", "swt_band_reconstruct", "swt_bandpass",
    "swt_level_band", "levels_for_band",
    "ImfSet", "emd", "hht_spectrum",
]
