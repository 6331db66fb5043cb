"""Independent brute-force oracles the tests check library results against.

Everything here is deliberately written the slow, obvious way and avoids the
library's own elimination / Frobenius / Berkowitz code paths.
"""

import itertools
from decimal import Decimal, localcontext

import numpy as np

# the (p, d) points where the int64 kernels are checked against references that
# reduce after every product: small, byte and 16-bit primes, every d up to 17
KERNEL_GRID = [(p, d) for p in (3, 5, 251, 257, 65521) for d in (*range(2, 18), 24, 32)]


def det_cofactor(rows, p):
    """Determinant mod p by cofactor expansion (memoized over column subsets)."""
    n = len(rows)
    memo = {}

    def expand(row, used):
        # determinant of rows[row:] restricted to columns not in `used`
        if row == n:
            return 1
        key = used
        if key in memo:
            return memo[key]
        total = 0
        position = 0
        for j in range(n):
            if used >> j & 1:
                continue
            entry = rows[row][j] % p
            if entry:
                sign = 1 if position % 2 == 0 else p - 1
                total = (total + sign * entry * expand(row + 1, used | 1 << j)) % p
            position += 1
        memo[key] = total
        return total

    return expand(0, 0)


def det_by_elimination(rows, p):
    """Determinant mod p by Gaussian elimination on Python ints, one row operation at a time.

    Polynomial in the size where ``det_cofactor`` is exponential, so it serves
    where d is too large for the cofactor expansion.
    """
    a = [[v % p for v in row] for row in rows]
    n = len(a)
    det = 1
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c] % p
        inv = pow(a[c][c], -1, p)
        for r in range(c + 1, n):
            f = a[r][c] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[c])]
    return det % p


def inverse_adjugate(rows, p):
    """Inverse mod p via the adjugate; None when singular."""
    n = len(rows)
    det = det_cofactor(rows, p)
    if det == 0:
        return None
    det_inv = pow(det, -1, p)
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [[rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
            cof = det_cofactor(minor, p) if minor else 1
            sign = 1 if (i + j) % 2 == 0 else p - 1
            adj[j][i] = sign * cof % p * det_inv % p
    return adj


def poly_is_irreducible_by_division(coeffs, p):
    """Monic polynomial has no monic divisor of degree 1 .. deg/2."""
    d = len(coeffs)
    full = list(coeffs) + [1]
    for deg in range(1, d // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            divisor = list(tail) + [1]
            r = full[:]
            while len(r) - 1 >= deg and any(r):
                if r[-1] == 0:
                    r.pop()
                    continue
                c = r[-1]
                shift = len(r) - len(divisor)
                for i, b in enumerate(divisor):
                    r[shift + i] = (r[shift + i] - c * b) % p
                r.pop()
            if not any(r):
                return False
    return True


def count_irreducible_brute(d, p):
    return sum(
        poly_is_irreducible_by_division(list(c), p)
        for c in itertools.product(range(p), repeat=d)
    )


def gl_order_brute(d, p):
    """Count invertible matrices by enumerating the whole space."""
    count = 0
    for entries in itertools.product(range(p), repeat=d * d):
        rows = [list(entries[i * d:(i + 1) * d]) for i in range(d)]
        if det_cofactor(rows, p) != 0:
            count += 1
    return count


def matrix_order_by_multiplication(a, p, bound):
    """Smallest k >= 1 with a^k = I, found by repeated multiplication."""
    n = a.shape[0]
    ident = np.eye(n, dtype=np.int64)
    acc = a.copy()
    for k in range(1, bound + 1):
        if np.array_equal(acc, ident):
            return k
        acc = acc @ a % p
    return None


def charpoly_by_interpolation(arr, p, det=det_cofactor):
    """Coefficients c_0..c_{d-1} of det(xI - A), from d+1 point evaluations by ``det``.

    Needs p > d so the evaluation points are distinct mod p.
    """
    d = arr.shape[0]
    assert p > d
    xs = list(range(d + 1))
    ys = []
    for x in xs:
        m = (x * np.eye(d, dtype=np.int64) - arr) % p
        ys.append(det(m.tolist(), p))
    vandermonde = np.array([[pow(x, k, p) for k in range(d + 1)] for x in xs], dtype=np.int64)
    aug = np.concatenate([vandermonde, np.array(ys, dtype=np.int64)[:, None]], axis=1)
    n = d + 1
    for c in range(n):
        piv = c + int(np.nonzero(aug[c:, c])[0][0])
        if piv != c:
            aug[[c, piv]] = aug[[piv, c]]
        aug[c] = aug[c] * pow(int(aug[c, c]), -1, p) % p
        for r in range(n):
            if r != c and aug[r, c]:
                aug[r] = (aug[r] - aug[r, c] * aug[c]) % p
    coeffs = [int(v) for v in aug[:, n]]
    assert coeffs[d] == 1
    return coeffs[:d]


def chi2_sf_even_decimal(x, dof):
    """Chi-square upper tail for even dof: exp(-x/2) * sum_{i<dof/2} (x/2)^i / i!.

    Summed term by term in 60-digit decimal, whose exponent range holds every
    term and the exponential without scaling.
    """
    assert dof % 2 == 0
    with localcontext() as ctx:
        ctx.prec = 60
        half = Decimal(x) / 2
        term, total = Decimal(1), Decimal(0)
        for i in range(dof // 2):
            total += term
            term = term * half / (i + 1)
        return float((-half).exp() * total)


def radix_digits(value, p, d):
    """The (d, d) row-major big-endian base-p digits of value, one divmod per digit."""
    digits = np.empty(d * d, dtype=np.int64)
    for i in range(d * d - 1, -1, -1):
        value, digits[i] = divmod(value, p)
    return digits.reshape(d, d)


def radix_value(m, p):
    """The integer whose big-endian base-p digits are m's entries, read row-major one by one."""
    value = 0
    for digit in m.reshape(-1):
        value = value * p + int(digit)
    return value


def encrypt_message_per_block(k, k_inv, plaintext, p, d, bpb):
    """Cipher blocks k^-1 m k of every zero-padded bpb-byte chunk, one block at a time."""
    chunks = [plaintext[i:i + bpb] for i in range(0, len(plaintext), bpb)] if bpb else []
    return [(k_inv @ radix_digits(int.from_bytes(c, "big"), p, d) % p) @ k % p for c in chunks]


def decrypt_message_per_block(k, k_inv, blocks, p, bpb, length):
    """The plaintext of cipher blocks, one block at a time; None when a block is out of range."""
    out, remaining = b"", length
    for c in blocks:
        value = radix_value((k @ c % p) @ k_inv % p, p)
        if value >= 1 << (8 * bpb):
            return None
        take = min(bpb, remaining)
        out += value.to_bytes(bpb, "big")[bpb - take:]
        remaining -= take
    return out


def splitmix64_stream(seed, nbytes):
    """The first nbytes of SplitMix64(seed), one 64-bit word at a time with Python ints."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = b""
    while len(out) < nbytes:
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out += (z ^ (z >> 31)).to_bytes(8, "little")
    return out[:nbytes]


def charpoly_berkowitz(arr, p):
    """Coefficients c_0..c_{d-1} of det(xI - A) by Berkowitz, one matrix and one matvec at a time.

    Division-free, so it holds at every p, p <= d included.
    """
    a = np.asarray(arr, dtype=np.int64) % p
    n = a.shape[0]
    v = np.array([1, (-int(a[0, 0])) % p], dtype=np.int64)
    for i in range(1, n):
        sub, row, col = a[:i, :i], a[i, :i], a[:i, i]
        t = np.empty(i + 2, dtype=np.int64)
        t[0] = 1
        t[1] = (-int(a[i, i])) % p
        w = col.copy()
        for k in range(i):
            t[k + 2] = (-int(row @ w)) % p
            w = (sub @ w) % p
        v = np.convolve(v, t)[:i + 2] % p
    return [int(c) for c in v[1:][::-1]]


def codec_tables(p, d):
    """cipher._layout's (to_limbs, to_words) by one big-integer power per entry: the reference build.

    Row j of to_limbs holds the base-p^k limbs of 256^(bpb-1-j), for the
    largest k >= 1 with 255 * bpb * p^k < 2^53, and row j of to_words the
    w-bit words of p^(d*d-1-j), for the largest w of 32, 16 and 8 with
    d*d*(p-1)*2^w < 2^53, both least significant first.
    """
    size = d * d
    bpb = ((p ** size).bit_length() - 1) // 8
    k = 1
    while 255 * max(bpb, 1) * p ** (k + 1) < 1 << 53:
        k += 1
    base = p ** k
    limbs = range((size - 1) // k + 1)
    to_limbs = [[256 ** j // base ** i % base for i in limbs] for j in range(bpb - 1, -1, -1)]
    w = 32
    while size * (p - 1) << w >= 1 << 53:
        w //= 2
    words = range(-(-(p ** size - 1).bit_length() // w))
    to_words = [[p ** s >> w * i & (1 << w) - 1 for i in words] for s in range(size - 1, -1, -1)]
    return np.array(to_limbs, np.float64).reshape(bpb, len(limbs)), np.array(to_words, np.float64)
