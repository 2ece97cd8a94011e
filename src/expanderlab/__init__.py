"""expanderlab: exact-arithmetic instrumentation for the growth of A(A+1).

Sumset and energy computations over prime fields and exact rationals, a
registry of certified inequality instances, executable proof constructions,
the slope-family incidence certificate over the rationals, and extremal
search for sets with a small expander image.  Sumsets, product sets,
partial difference sets, multiplicity spectra and energies all come from one
scaled-integer pair kernel, `sets._pair_ints`, except where a cost model
sends an F_p energy or R6 count to one convolution of discrete logarithms
in byte-wide slots (`energy._slot_convolution`), an F_p sumset size to
p-bit residue masks (`sets.sumset_size`), or an F_p product, ratio or
expander set to a (p-1)-bit log mask (`sets.log_mask`).
No floating point participates in any verdict.
"""

__version__ = "0.1.0"

from .field import FieldCtx, is_prime
from .sets import (
    FSet,
    PairGraph,
    affine_image,
    combine,
    expander_set,
    kfold_size,
    load_set,
    partial_combine,
    save_set,
    sumset_size,
)
from .energy import (
    EnergyValue,
    MultiplicityHistogram,
    additive_energy,
    energy,
    histogram,
    multiplicative_energy,
    rich_products,
    twisted_energy,
)
from .intervals import RatInterval, log_ratio_interval, pow_interval, root_interval
from .constructions import (
    CoverResult,
    InjectionResult,
    PartialTriangleResult,
    PlunneckeResult,
    PopularRatioResult,
    dense_degree_subset,
    greedy_cover,
    injection_witness,
    partial_ruzsa,
    plunnecke_witness,
    popular_ratio_graph,
)
from .incidence import (
    Line,
    count_incidences,
    st_lower_bound_check,
)
from .verify import (
    FAILS,
    HOLDS,
    INCONCLUSIVE,
    SLACK_ONLY,
    InequalityReport,
    Instance,
    PipelineTrace,
    REGISTRY,
    check,
    finite_field_pipeline,
    real_pipeline,
)
from .search import (
    ExtremalRecord,
    SearchConfig,
    exhaustive_min,
    exponent_table,
    stochastic_search,
)
