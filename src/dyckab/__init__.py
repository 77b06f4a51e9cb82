"""Dyck path area/bounce toolkit.

Core objects: DyckPath with its area and bounce statistics, the partial
operators that trade cells between rows and columns, the area-bounce
exchanging flip bijection with certificates, extremal path theory at fixed
area + bounce, exact q-Bell / Gaussian polynomial arithmetic, and a
brute-force verification harness covering all of it at small semilength.
"""

from .paths import (
    DyckPath,
    PathSequence,
    catalan,
    compositions,
    conjugate,
    count_paths_with_bounce_path,
    distinct_parts,
    enumerate_paths,
    is_partition,
    multiplicity,
    partitions,
)
from .ops import (
    BOTTOM,
    Bottom,
    add_area_cell,
    add_column_cell,
    bounce_boost,
    down,
    existence_scan_down,
    existence_scan_up,
    is_bottom,
    remove_area_cell,
    remove_column_cell,
    shift,
    unshift,
    up,
)
from .bijection import (
    Certificate,
    Classification,
    NotInDomainError,
    apply_area_map,
    apply_bounce_map,
    bounce_index_set,
    bounce_map,
    classify,
    extended_flip_sets,
    flip_sets,
    gamma,
    gamma_inverse,
    is_certificate,
    iter_certificates,
    iter_extended_certificates,
    phi,
    phi_inverse,
    row_index_set,
    row_map,
)
from .extremal import (
    ab_ladder,
    ab_level_map,
    area_minimal,
    bounce_minimal,
    construct_path,
    equivalence_class,
    interpolation_report,
    is_area_minimal,
    is_bounce_minimal,
    level_sets,
    max_ab,
    min_ab,
    nonemptiness_symmetry,
    phi_on_minimal,
    top_levels,
)
from .qbell import (
    DISTINCT_AB_FIRST_TWENTY,
    BivariateTable,
    ab_interval_width,
    bell_number,
    distinct_ab_count,
    minimizing_composition,
    q_bell,
    q_binomial,
    qt_catalan,
    qt_flip_closure,
)
from .oracle import CheckReport, run_suite

__version__ = "0.1.0"
