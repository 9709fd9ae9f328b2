"""Array-native round kernel.

``repro.kernel`` executes algorithms that ship a hand-vectorised kernel
over dense numpy state arrays and a CSR adjacency, byte-identical to the
classic per-node loops (see ``delivery="kernel"`` on
:class:`repro.runtime.simulator.Simulator` and the ``delivery-equivalence``
contract, :mod:`repro.verify.contracts`):

* :mod:`.coloring` — BasicColoring and SColor (with ``scolor-no-uncolor``),
  and the DColor rows (:class:`~repro.kernel.coloring.DColorRows`);
* :mod:`.mis` — SMis (with ``smis-no-undecide``) and the DMis rows
  (:class:`~repro.kernel.mis.DMisRows`);
* :mod:`.base` — the standalone ``dcolor`` / ``dmis`` driver over one row
  (:class:`~repro.kernel.base.DynamicRowKernel`);
* :mod:`.concat` — the ``Concat`` combiners DynamicColoring and DynamicMIS,
  one ring of rows over the backbone's kernel.

The package requires numpy >= 1.26 (vectorised ufunc paths the kernels
rely on); the import fails fast with a clear message otherwise.
"""

from __future__ import annotations

import numpy as _np

_REQUIRED_NUMPY = (1, 26)


def _check_numpy_version() -> None:
    parts = []
    for token in _np.__version__.split(".")[:2]:
        digits = ""
        for ch in token:
            if ch.isdigit():
                digits += ch
            else:
                break
        parts.append(int(digits or 0))
    if tuple(parts) < _REQUIRED_NUMPY:
        floor = ".".join(str(p) for p in _REQUIRED_NUMPY)
        raise ImportError(
            f"repro.kernel requires numpy>={floor} but found {_np.__version__}; "
            f"upgrade with `pip install 'numpy>={floor}'` or run with "
            "delivery='incremental' to stay on the classic engine"
        )


_check_numpy_version()

from .base import AlgorithmKernel, DeliverContext  # noqa: E402
from .csr import EdgeUniverse  # noqa: E402
from .plan import KernelPlan  # noqa: E402

__all__ = [
    "AlgorithmKernel",
    "DeliverContext",
    "EdgeUniverse",
    "KernelPlan",
]
