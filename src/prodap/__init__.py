"""Exact-arithmetic toolkit for arithmetic progressions inside product sets.

Given a finite set B, the product set B.B = {b*b' : b, b' in B} can carry an
arithmetic progression; this package builds such instances, reduces the
progression to a canonical coprime form, ties progression terms to a bipartite
representation graph, and runs exact audits of the cycle, irregularity,
coverage, and rationalization mechanics that govern how long the progression
can be.
"""

from .apcore import APDescriptor, ReductionStep, ReductionTrace, gcd_bound_audit, reduce_ap
from .construct import ConstructionResult, cover_set, coverage_check, floor_n_log_n, split_factor
from .cyclelab import (
    CyclePoly,
    EvenCycle,
    cycle_audit,
    cycle_identity_check,
    cycle_poly,
    divisibility_audit,
    enumerate_even_cycles,
    find_even_cycle,
    symmetric_coefficients,
)
from .errors import (
    CapacityError,
    DomainError,
    FalsificationError,
    FieldMismatchError,
    InputError,
    ProdapError,
    RepresentationError,
    ShapeError,
)
from .exactnum import PrimeTable, QuadElem
from .harness import (
    InstanceFile,
    absolutize,
    concavity_demo,
    integerize,
    pipeline,
    scaling_study,
    study_csv,
)
from .irregular import (
    IrregularityReport,
    PrimeWindow,
    forest_check,
    hit_count,
    irregularity_report,
    prime_window,
)
from .prodset import (
    APSearchResult,
    ProductSet,
    RepGraph,
    build_rep_graph,
    longest_ap,
    product_set,
)
from .rationalize import (
    QuadInstance,
    four_cycle_exists_audit,
    four_cycle_r,
    make_quad_instance,
    rationalize_components,
)

__version__ = "0.1.0"
