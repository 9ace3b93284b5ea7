"""boxrep: build and certify box representations of graphs.

A box representation presents a graph as the intersection of interval
graphs; its length certifies an upper bound on the graph's boxicity. The
package provides builders for the classic constructions, combinators that
recombine partial representations, oracle verification for every output,
end-to-end pipelines, and brute-force exact solvers for desk-scale ground
truth.
"""

from .builders import (
    DegenerateStrategy,
    acyclic_rep,
    degenerate_rep,
    forest_rep,
    roberts_rep,
    trivial_rep,
)
from .coloring import Coloring, acyclic_coloring, chromatic_number, smallest_acyclic_coloring
from .combinators import quotient_lift, split_compose
from .exact import exact_boxicity, exact_poset_dimension
from .graph import (
    Graph,
    assert_k3k,
    components,
    degeneracy_order,
    euler_genus_upper,
    forward_degeneracy,
    generate,
    parse_graph,
    peel,
    quotient_by_a_neighborhood,
    write_graph,
)
from .intervals import (
    BoxRepresentation,
    VerifyReport,
    extend_universal,
    merge_components,
    parse_representation,
    prune_dims,
    verify_representation,
    write_representation,
)
from .pipelines import (
    PipelineTrace,
    bipartite_experiment,
    bound_report,
    edge_pipeline,
    format_bound_table,
    surface_pipeline,
)
from .poset import FinitePoset, adjacency_poset, poset_dim_upper

__all__ = [name for name in dir() if not name.startswith("_")]
