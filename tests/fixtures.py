"""Shared test fixtures: the named matrices and sign-vector families used
across the suite, with their documented combinatorial facts.

DISTORTION_B_PRINTED is the two-decimal published form of the rank-two
matrix; DISTORTION_B is the exact rank-two matrix it rounds to (recovered
once via truncated SVD and frozen here), factored as POINTS_B @ NORMALS_B.T.
DISTORTION_A applies x -> e^(x/10) entrywise to the printed values.
"""

import numpy as np

from monorank import SignVectorSet, random_representation

DISTORTION_B_PRINTED = np.array(
    [
        [13.01, 12.4, 0.08],
        [1.6, 8.52, -5.56],
        [2.06, -3.23, 4.14],
        [17.48, 25.26, -6.74],
    ]
)

DISTORTION_B = np.array(
    [
        [13.010788302640968, 12.39917938056286, 0.07896881861519649],
        [1.599005460559254, 8.521035311000704, -5.558699039550991],
        [2.0581904163138227, -3.2281162316744303, 4.142367122618211],
        [17.47971728965056, 25.26029430017836, -6.73963018562353],
    ]
)

POINTS_B = np.array(
    [
        [-17.304338026751164, 4.856581420892839],
        [-8.78909633479254, -5.36803333300574],
        [2.203873806626192, 5.1922083758282715],
        [-31.438702253212515, -0.8084555216897998],
    ]
)

NORMALS_B = np.array(
    [
        [-0.572435305474502, 0.6393744918813211],
        [-0.7961802000088714, -0.28377819934575155],
        [0.19599721977657333, 0.714611917552167],
    ]
)

DISTORTION_A = np.array(
    [
        [3.67, 3.46, 1.01],
        [1.17, 2.34, 0.57],
        [1.23, 0.72, 1.51],
        [5.74, 12.5, 0.51],
    ]
)

# published singular values
DISTORTION_B_SPECTRUM = (37.01, 8.94)
DISTORTION_A_SPECTRUM = (14.86, 2.42, 0.88)

RAD_STRICT = np.array(
    [
        [12, 13, 3, 10, 6],
        [13, 14, 4, 9, 5],
        [3, 4, 15, 11, 1],
        [10, 9, 11, 8, 2],
        [6, 5, 1, 2, 7],
    ],
    dtype=float,
)

THRESHOLD_TOPES_A = {
    "+--+", "-++-", "+-+-", "-+-+", "++++", "----",
    "++-+", "--+-", "+++-", "---+", "+-++", "-+--",
}

DIFFERENCE_TOPES_A = {"+++", "++-", "--+", "---", "-+-", "+-+"}

POTENTIAL_CIRCUITS_RAD_STRICT = {
    "+--+0", "-++-0", "+--0-", "-++0+", "+-0+-",
    "-+0-+", "+0+-+", "-0-+-", "0++-+", "0--+-",
}

RANK2_CYCLE = SignVectorSet.from_strings(
    ["++-", "+++", "+-+", "--+", "---", "-+-"]
)

RANK3_REJECT = SignVectorSet.from_strings(
    ["++++", "++--", "-+-+", "----", "--++", "+-+-"]
)


def a4_csv() -> str:
    return "\n".join(",".join(str(int(x)) for x in row) for row in RAD_STRICT) + "\n"


def a1_csv() -> str:
    return "\n".join(",".join(repr(float(x)) for x in row) for row in DISTORTION_A) + "\n"


def oracle_matrices() -> list[np.ndarray]:
    """Generic matrices on which the mask kernels are checked against the
    object builders: seeded representations up to 22x22 at d 2-4, 70x3
    and 3x70, 1-row and 1-column matrices, and DISTORTION_A."""
    mats = [DISTORTION_A, DISTORTION_A[:1], DISTORTION_A[:, :1]]
    rng = np.random.default_rng(6)
    mats += [rng.standard_normal((1, n)) for n in (1, 2, 5)]
    mats += [rng.standard_normal((m, 1)) for m in (2, 5, 16)]
    for d in (2, 3, 4):
        for size in (4, 9, 16, 22):
            for seed in range(3):
                mats.append(random_representation(size, size, d, seed).matrix)
        mats.append(random_representation(16, 7, d, 100 + d).matrix)
    mats += [random_representation(m, n, 2, 7).matrix for m, n in ((70, 3), (3, 70))]
    return mats
