"""hexspan: distance-coloring toolkit for the infinite hexagonal grid."""

__version__ = "0.1.0"

from .grid import (
    Vertex,
    bfs_distances,
    distance_bfs,
    distance_closed,
    neighbors,
    parity,
)
from .rings import (
    DistanceClique,
    ReuseSet,
    Ring,
    ShellSet,
    ball,
    build_clique,
    build_ring,
    build_shell,
    corner_offsets,
    expected_shell_size,
    reuse_set,
    shell_union,
)
from .reuse import (
    ObservationReport,
    SpreadBound,
    color_budget_certificate,
    max_spread,
    max_spreads,
    run_checks,
    verify_corner_pair_exclusion,
    verify_corner_reuse,
    verify_noncorner_reuse,
    verify_path_bound,
    verify_shell_reuse,
    verify_shell_reuse_all,
)
from .spans import SpanCertificate, nearest_int_bracket, span_even
from .errors import InputError, ResourceGuard
from .solver import solve_coloring
from .coloring import (
    LatticeColoring,
    WindowColoring,
    exact_window_span,
    materialize_window,
    read_coloring,
    read_coloring_file,
    search_lattice,
    search_periodic,
    single_coset_coloring,
    verify_lattice,
    verify_window,
    write_coloring,
    write_coloring_file,
)
from .render import render_svg
