"""blockhess: exact arithmetic for alternating coefficient arrays, their
chart forms, and the block skew-symmetric Hessians those forms carry.

The package is organized around the pipeline

    coefficient array  ->  chart form  ->  Hessian matrix  ->  invariants

with everything computed over Q (fractions), polynomial rings with Fraction
coefficients, or prime fields — never floats.

Modules
-------
multiindex      strictly increasing index tuples, signs, node index sets
ring            MultiPoly, its multiply and exact division on packed
                monomials, prime table, mod-p interpolation and r-th roots
linalg          one integer echelon kernel on sparse primitive rows (rank
                and span equality over Q); integer Bareiss
                determinants over Z and Q; Bareiss on polynomial entries
                packed once into int-keyed monomials;
                one bit-packed elimination for rank and determinant mod p
exterior        coefficient arrays, chart points, translation by the
                k(N-k) commuting transvections of the point, and the
                gradient and criticality read off the translated array
hessian         block matrix assembly, duality relabeling and trials,
                embeddings, det on a line mod p, the (3,6) cube identity
degree          admissible factor degrees
irreducibility  factor-pattern bookkeeping and verdict derivations
node_cusp       degenerating frames, defining forms and their limits,
                second-tangency verification
certificates    embedded coefficient records, checksums, verification,
                composition rules for new corank-one records
cli             the ``blockhess`` command
"""

__version__ = "0.1.0"
