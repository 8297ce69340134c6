"""Reference F_q arithmetic for generating workload inputs and checking outputs.

Written independently of ``ffmult.ff`` so that a defect in the library's
arithmetic cannot make a wrong output look right.  Element codes follow the
library's documented convention: ``c0 + c1*p + ... + c_{e-1}*p^(e-1)`` is
the residue polynomial ``c0 + c1*X + ...`` modulo the canonical modulus read
from the shipped ``moduli.txt`` table.  Speed does not matter here: inputs
are small and all of this runs outside the timed region.
"""

from __future__ import annotations

from pathlib import Path


def read_moduli(path: Path) -> dict[tuple[int, int], tuple[int, ...]]:
    table = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            nums = [int(tok) for tok in line.split()]
            table[(nums[0], nums[1])] = tuple(nums[2:])
    return table


class RefField:
    """F_{p^e} on integer codes, by schoolbook polynomial arithmetic."""

    def __init__(self, p: int, e: int, moduli: dict):
        self.p, self.e, self.q = p, e, p ** e
        self.modulus = moduli[(p, e)] if e > 1 else (0, 1)
        self.text = str(p) if e == 1 else f"{p}^{e}"

    def _vec(self, code: int) -> list[int]:
        out = []
        for _ in range(self.e):
            code, c = divmod(code, self.p)
            out.append(c)
        return out

    def _code(self, vec) -> int:
        code = 0
        for c in reversed(vec):
            code = code * self.p + c % self.p
        return code

    def add(self, a: int, b: int) -> int:
        return self._code([x + y for x, y in zip(self._vec(a), self._vec(b))])

    def mul(self, a: int, b: int) -> int:
        p, e = self.p, self.e
        if e == 1:
            return a * b % p
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(self._vec(a)):
            for j, y in enumerate(self._vec(b)):
                prod[i + j] += x * y
        for i in range(2 * e - 2, e - 1, -1):
            c = prod[i] % p
            prod[i] = 0
            for j in range(e):
                prod[i - e + j] -= c * self.modulus[j]
        return self._code(prod[:e])

    def eval(self, coeffs, x: int) -> int:
        """Horner evaluation of a low-to-high coefficient list at x."""
        acc = 0
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), c)
        return acc

    def directions(self, n: int) -> list[tuple[int, ...]]:
        """One vector per projective direction: first nonzero entry is 1."""
        out = [()]
        for _ in range(n):
            out = [v + (c,) for v in out for c in range(self.q)]
        return [v for v in out if next((c for c in v if c), None) == 1]

    def line(self, a, b) -> list[tuple[int, ...]]:
        return [
            tuple(self.add(aj, self.mul(t, bj)) for aj, bj in zip(a, b))
            for t in range(self.q)
        ]
