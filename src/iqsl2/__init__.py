"""Exact symbolic kernel for rank-1 iota-divided powers.

Constructs the generator B = F + varsigma E K^-1 inside the quantized
enveloping algebra of sl2, builds both families of its divided powers, and
mechanically verifies their multiplication and comultiplication laws with
exact Laurent-polynomial arithmetic. The verify module exposes the check
suites; the cli module exposes them as the `iqsl2` command.
"""

from . import coeff, cyclo, idp, pbw, qcomb, tensor
from ._kernel import BACKEND as KERNEL_BACKEND
from .coeff import LaurentPoly, Scalar
from .errors import (
    DenominatorVanishes,
    DivisionByZero,
    IqslError,
    NegativeInput,
    NotIntegral,
    RequiresSpecialized,
    ResourceLimit,
    UnknownSuite,
    ZeroBase,
)
from .idp import (
    EV,
    ODD,
    PARITIES,
    BPolynomial,
    comult_direct,
    comult_theorem,
    comult_theorem_reversed,
    idp_basis_expand,
    idp_closed,
    idp_recursive,
    idp_to_pbw,
    mult_closed,
    mult_direct,
    s_component,
    s_component_reversed,
)
from .pbw import UElement, chi, divided_power, u_gen, u_h, u_h_binom
from .qcomb import qbinom, qfact, qint, qint_base
from .tensor import TensorElement, delta
from .verify import (
    SUITES,
    emit_table,
    expand_comult,
    expand_idp,
    run_suite,
    table_rows,
)

__all__ = [
    "KERNEL_BACKEND",
    "cache_info",
    "clear_caches",
    "LaurentPoly",
    "Scalar",
    "IqslError",
    "DivisionByZero",
    "DenominatorVanishes",
    "RequiresSpecialized",
    "NotIntegral",
    "ZeroBase",
    "NegativeInput",
    "UnknownSuite",
    "ResourceLimit",
    "qint",
    "qint_base",
    "qfact",
    "qbinom",
    "EV",
    "ODD",
    "PARITIES",
    "BPolynomial",
    "idp_closed",
    "idp_recursive",
    "idp_basis_expand",
    "idp_to_pbw",
    "mult_closed",
    "mult_direct",
    "s_component",
    "s_component_reversed",
    "comult_theorem",
    "comult_theorem_reversed",
    "comult_direct",
    "UElement",
    "u_gen",
    "u_h",
    "u_h_binom",
    "divided_power",
    "chi",
    "TensorElement",
    "delta",
    "SUITES",
    "run_suite",
    "table_rows",
    "emit_table",
    "expand_idp",
    "expand_comult",
]

__version__ = "0.1.0"


# the memo caches of the package that are dicts, as (module, attribute name)
_MEMOS = [
    (pbw, "_MONO_CACHE"),
    (pbw, "_COMMUTE_VEC_CACHE"),
    (pbw, "_HBINOM_VEC_CACHE"),
    (tensor, "_DELTA_MONO_CACHE"),
    (tensor, "_DELTA_POW_VEC"),
    (idp, "_NUMERATOR_CACHE"),
    (idp, "_CLOSED_CACHE"),
    (idp, "_REC_CACHE"),
    (idp, "_PBW_CLOSED_CACHE"),
    (idp, "_PBW_VEC_CACHE"),
    (cyclo, "_CYCLOTOMIC_CACHE"),
    (cyclo, "_DIVISOR_MASKS"),
    (cyclo, "_PHI_VALUES"),
    (cyclo, "_REST_CACHE"),
    (coeff, "_QPOW"),
]


def clear_caches():
    """Empty every memo cache of the package, in place.

    The caches hold normal-form products, coproducts of monomials, the
    integral numerators of the divided powers, closed and recursive divided
    powers, the PBW images of the closed divided powers, the exponent
    vectors of the terms of F^c E^a, of the images of the closed divided
    powers, of the powers of the coproducts of E and F and of the
    h-binomials (``pbw._HBINOM_VEC_CACHE``), cyclotomic polynomials, their
    values, the cyclotomic factors of quantum integers, the products of
    cyclotomic factors that the checked sums evaluate, with their norms and
    values (``cyclo._REST_CACHE``), q-powers and quantum integers,
    factorials and binomials. They only grow, by the
    orders a process has asked for; clearing them frees that memory and
    changes no result. ``cache_info`` reports their sizes.
    """
    for module, name in _MEMOS:
        getattr(module, name).clear()
    for fn in qcomb._LRU_CACHED:
        fn.cache_clear()


def cache_info():
    """The number of entries of every memo cache of the package, keyed by
    its qualified name (``iqsl2.idp._PBW_VEC_CACHE``, ``iqsl2.qcomb.qint``);
    each holds 0 after ``clear_caches``."""
    info = {f"{m.__name__}.{name}": len(getattr(m, name))
            for m, name in _MEMOS}
    for fn in qcomb._LRU_CACHED:
        info[f"{fn.__module__}.{fn.__qualname__}"] = fn.cache_info().currsize
    return info
