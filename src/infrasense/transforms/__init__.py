"""Transform-based signal decomposition: STFT, DWT/SWT, EMD-HHT.

EMD-HHT is the only part that needs scipy, so its names are loaded on
first use (PEP 562) and importing this package loads no scipy module.
"""

import importlib
import sys
import types

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
    swt_level_band,
    wavedec,
    waverec,
)

_EMD_NAMES = ("ImfSet", "emd", "hht_spectrum")

__all__ = [
    "Spectrogram", "TransformError", "stft",
    "WAVELETS", "WaveletDecomposition", "dwt_level", "idwt_level",
    "wavedec", "waverec", "swt", "iswt", "swt_band_reconstruct",
    "swt_level_band", "levels_for_band",
    *_EMD_NAMES,
]


def __getattr__(name):
    if name not in _EMD_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(".emd", __name__), name)


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # Loading a submodule binds it as a package attribute, which for
        # `.emd` would hide the function `emd`; bind its three names instead.
        if name == "emd" and value is sys.modules.get(f"{__name__}.emd"):
            self.__dict__.update({n: getattr(value, n) for n in _EMD_NAMES})
        else:
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
