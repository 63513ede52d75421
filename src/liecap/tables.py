"""Expected values for the verification suites, embedded as data.

Each suite row carries a descriptive source tag so a failing row names the
table it came from.  Labels use the recognition grammar: ``A(6)``,
``H(1)+A(3)``, ``L5_8+A(1)``.
"""

# dim-4 invariant table: multiplier dim, wedge, tensor, diagonal label per index
DIM4_MULTIPLIER = {1: 6, 2: 4, 3: 2}
DIM4_EXTERIOR = {1: "A(6)", 2: "A(5)", 3: "A(4)"}
DIM4_TENSOR = {1: "A(16)", 2: "A(11)", 3: "A(7)"}
DIM4_DIAGONAL = {1: "A(10)", 2: "A(6)", 3: "A(3)"}

# dim-5 tables
MULTIPLIER_5 = {1: 10, 2: 7, 3: 4, 4: 5, 5: 4, 6: 3, 7: 3, 8: 6, 9: 3}

EXTERIOR_5 = {
    1: "A(10)", 2: "A(8)", 3: "A(6)", 4: "A(6)", 5: "A(6)",
    6: "H(1)+A(3)", 7: "H(1)+A(3)", 8: "A(8)", 9: "A(6)",
}

DIAGONAL_5 = {1: 15, 2: 10, 3: 6, 4: 10, 5: 6, 6: 3, 7: 3, 8: 6, 9: 3}

TENSOR_5 = {
    1: "A(25)", 2: "A(18)", 3: "A(12)", 4: "A(16)", 5: "A(12)",
    6: "H(1)+A(6)", 7: "H(1)+A(6)", 8: "A(14)", 9: "A(9)",
}

# dim-6 tables; epsilon families take the same value for every sample
# unless split below
MULTIPLIER_6 = {
    1: 15, 2: 11, 3: 7, 4: 9, 5: 7, 6: 5, 7: 5, 8: 9, 9: 5,
    10: 6, 11: 5, 12: 5, 13: 4, 14: 2, 15: 3, 16: 2, 17: 3, 18: 3,
    19: 5, 20: 5, 21: 4, 22: 8, 23: 6, 24: 5, 25: 6, 26: 8, 27: 6, 28: 4,
}

EXTERIOR_6 = {
    1: "A(15)", 2: "A(12)", 3: "A(9)", 4: "A(10)", 5: "A(9)",
    6: "H(1)+A(5)", 7: "H(1)+A(5)", 8: "A(11)", 9: "A(8)",
    10: "A(8)", 11: "H(1)+A(5)", 12: "H(1)+A(5)", 13: "A(7)",
    14: "L5_8+A(1)",  # published value; the computed square is H(1)+A(3)
    15: "H(1)+A(4)", 16: "H(1)+A(3)", 17: "H(1)+A(4)",
    18: "H(1)+A(4)", 19: "A(8)", 20: "A(8)", 22: "A(10)", 23: "A(9)",
    24: "A(8)", 25: "A(9)", 26: "A(11)", 27: "A(9)", 28: "H(1)+A(5)",
}

# dim-6 exterior rows where the published label is proven wrong; EXTERIOR_6
# keeps the published value.  L6_14: the derived subalgebra of L ^ L is one
# dimensional, L5_8+A(1) would need two (proof:
# tests/test_homology.py::TestL614ExteriorSquare).
EXTERIOR_6_ERRATA = {14: "H(1)+A(3)"}


def exterior_6_label(index, epsilon):
    """Expected dim-6 exterior label; index 21 splits on epsilon."""
    if index == 21:
        return "H(1)+A(5)" if not epsilon else "L5_8+A(3)"
    return EXTERIOR_6[index]


# the noncapable census through dimension 6; epsilon families cover all samples
NONCAPABLE = ("A1", "L5_4", "L6_4", "L6_10", "L6_14", "L6_16", "L6_19", "L6_20")

# closed forms checked by the kunneth suite
ABELIAN_MULTIPLIER_RANGE = 8      # dim M(A(n)) = n(n-1)/2 for n <= this
HEISENBERG_MULTIPLIER_RANGE = 4   # dim M(H(m)) = 2m^2 - m - 1 for 2 <= m <= this
KUNNETH_PAIR_COUNT = 50
KUNNETH_SEED = 20240517
