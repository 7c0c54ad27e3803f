"""Graphical maj/inv statistics on words over a finite alphabet.

The package provides word and relation types, the graphical major index and
inversion number attached to a relation, exact distribution polynomials in
q, the relation-parametrized second fundamental transformation, and
exhaustive verifiers for the equidistribution and classification theorems
that govern mahonian maj-inv statistics.
"""

from .words import (
    Composition,
    Word,
    class_size,
    composition_of,
    compositions_of_weight,
    compositions_up_to,
    enumerate_class,
    words_of_length,
)
from .relations import (
    INF,
    Bipartition,
    GMap,
    Relation,
    divides,
    empty_relation,
    extract_bipartition,
    full_relation,
    gmap_to_relation,
    is_bipartitional,
    is_kappa_extensible,
    is_kappa_extension,
    is_total_order,
    is_transitive,
    kappa_closure,
    natural_order,
    order_from_ranks,
    relation_from_bipartition,
    relation_to_gmap,
    s_ab,
    s_prime_ab,
    set_alphabet_relations,
    u_ab,
    u_k,
    v_k,
)
from .statistics import (
    MajInvStatistic,
    gmap_stat,
    graphical_inv,
    graphical_maj,
    inv_stat,
    k_maj,
    k_maj_stat,
    letter_counts,
    maj_stat,
    marked_successor_gmap,
    ratio_gmap,
    set_maj,
    set_maj_stat,
    stat_fg,
    subset_stat,
    subset_stat_total,
)
from .qseries import (
    QPolynomial,
    bipartitional_product_formula,
    distribution,
    distributions_up_to,
    is_mahonian_up_to,
    q_factorial,
    q_integer,
    q_multinomial,
)
from .transform import (
    gamma,
    gamma_inverse,
    psi,
    psi_inverse,
    x_factorization,
)
from .mahonian import (
    Report,
    enumerate_mahonian_stats,
    enumerate_relations,
    verify_applications,
    verify_classification,
    verify_distinctness,
    verify_equidistribution,
    verify_kappa_machinery,
    verify_macmahon,
    verify_product_formula,
    verify_psi,
    verify_theorem_majinv,
)

__version__ = "0.1.0"
