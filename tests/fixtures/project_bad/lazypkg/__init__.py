"""A lazy facade: public names resolve through a PEP 562 export table.

Nothing here imports ``pool`` or ``seeds``, so ``from lazypkg import
SweepExecutor`` resolves only if the analyzer reads ``_EXPORTS``; the
RL001 and RP202 findings in ``fanout.py`` exist only if it does.
"""

import importlib

_EXPORTS = {
    ".pool": ("SweepExecutor",),
    ".seeds": ("make_rng",),
}


def __getattr__(name):
    for module, names in _EXPORTS.items():
        if name in names:
            return getattr(importlib.import_module(module, __name__), name)
    raise AttributeError(name)
