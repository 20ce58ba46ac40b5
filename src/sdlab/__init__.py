"""sdlab: numerical semigroups, Dedekind-type sums, torus-knot Alexander
polynomials, and an exact verification suite for the identities tying them
together.

The names imported below are the public API: ``__all__`` is computed from
them, as every name in this namespace that does not start with ``_`` and is
not a submodule, so importing a name here exports it.
"""

from types import ModuleType as _ModuleType

from .errors import (
    EmptyGenerators,
    EmptyPlan,
    GcdNotOne,
    InexactDivision,
    NotAMember,
    SdlabError,
    TooLarge,
    UnknownIdentity,
)
from .polyring import (
    BiLaurent,
    LaurentPoly,
    ONE,
    ZERO,
    bi_monomial,
    from_t,
    geom_sum,
    monomial,
    roots_of_unity,
)
from .semigroup import (
    AperySet,
    NumericalSemigroup,
    alexander_closed_form,
    torus_gaps_mordell,
    torus_semigroup,
)
from .dedekind import (
    apostol_bernoulli,
    apostol_bernoulli_values,
    carlitz_floor_sum,
    carlitz_poly,
    carlitz_sawtooth_poly,
    dedekind_sum,
    mirimanoff,
    mirimanoff_vs_apostol_check,
    rt_poly,
    voronoi_sum,
    zolotarev,
)
from .identities import (
    IdentityReport,
    SuiteRanges,
    check_cor510,
    check_eq1,
    check_eq6,
    check_gap_values,
    check_prop1,
    check_prop1_ab,
    check_prop2,
    check_prop3,
    check_prop4,
    check_prop5,
    check_prop6,
    check_prop7,
    check_sawtooth_poly,
    reports_to_csv,
    reports_to_json,
    run_suite,
    summarize,
)

__version__ = "0.1.0"

__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
