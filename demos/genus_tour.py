"""A short tour of modular-curve genus computations.

Walks through the genus of the full level-1 curve, congruence subgroups
+-Gamma(N) for small N, and a census of genus values over all subgroups
of SL2(Z/8) up to conjugacy.  The subgroups are listed by the brute-force
enumeration in tests/oracle_helpers.py, which the test suite uses as an
oracle.

Run:  python3 demos/genus_tour.py
"""

import os
import sys
from collections import Counter

from aimg import FiniteMatrixGroup, OpenSubgroup, ResidueMatrix, genus

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "tests"))
from oracle_helpers import (  # noqa: E402
    all_subgroups_up_to_conjugacy,
    sl2_elements,
)


def main():
    print("== The j-line ==")
    gd = genus(OpenSubgroup.full())
    print(f"full group: genus {gd.genus}, degree {gd.degree}\n")

    print("== +-Gamma(N): principal congruence subgroups with -I ==")
    for N in (2, 3, 4, 5, 6, 7, 8):
        G = OpenSubgroup(
            N, (ResidueMatrix.from_tuple((N - 1, 0, 0, N - 1), N),))
        gd = genus(G)
        print(f"N = {N}: degree {gd.degree:4d}  e2 = {gd.e2}  "
              f"e3 = {gd.e3}  cusps = {gd.e_inf:3d}  genus = {gd.genus}")
    print("(N = 5 is the icosahedral genus-0 curve; genus first jumps "
          "to 3 at N = 7)\n")

    print("== Genus census over subgroups of SL2(Z/8) up to conjugacy ==")
    counts = Counter()
    for sub in all_subgroups_up_to_conjugacy(sl2_elements(8), 8):
        G = OpenSubgroup.from_group(
            FiniteMatrixGroup.from_elements(sorted(sub), 8))
        counts[genus(G).genus] += 1
    for g in sorted(counts):
        print(f"genus {g}: {counts[g]} conjugacy classes")


if __name__ == "__main__":
    main()
