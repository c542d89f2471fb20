//! Content-addressed cell identity.
//!
//! A cell's identity must change whenever anything that could change
//! its bytes changes — the scenario config, the root seed, the
//! code-relevant version — and must *not* change across runs, worker
//! counts, or interruption points. Both halves are FNV-1a over the same
//! input with distinct offset bases, giving a 128-bit id that is cheap,
//! dependency-free, and stable across platforms. Collision resistance
//! is adequate for a job cache (ids are additionally verified against
//! the stored key on lookup, so a collision degrades to a cache miss,
//! never to wrong data).

/// A 128-bit content hash rendered as 32 lowercase hex digits.
pub type CellId = String;

/// FNV-1a 64-bit offset basis (standard).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// Second, independent offset basis for the high half: FNV-1a of the
/// ASCII bytes `"hcperf-store"` folded into the standard basis.
const FNV_OFFSET_HI: u64 = 0x9ae1_6a3b_2f90_404f;
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv1a64_with(offset: u64, bytes: &[u8]) -> u64 {
    let mut hash = offset;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Hashes the parts of a run configuration that define cell identity
/// into a 16-hex-digit fingerprint.
///
/// Callers list every config field whose change must invalidate cached
/// results, plus a code-version tag for the simulation code path (bump
/// it when the cell computation changes), plus the root seed. Parts are
/// joined with `\x1f` (unit separator) so `["ab", "c"]` and `["a",
/// "bc"]` fingerprint differently.
#[must_use]
// hcperf-lint: det-sink(store-fingerprint): cache identity must not depend on ambient state
pub fn fingerprint(parts: &[&str]) -> String {
    let mut bytes = Vec::new();
    for (i, p) in parts.iter().enumerate() {
        if i > 0 {
            bytes.push(0x1f);
        }
        bytes.extend_from_slice(p.as_bytes());
    }
    format!("{:016x}", fnv1a64_with(FNV_OFFSET, &bytes))
}

/// Content-addressed identity of one experiment cell: 128 bits over
/// `(fingerprint, stable job key)` as 32 lowercase hex digits. Both
/// FNV-1a halves hash `fingerprint`, `\x1f`, `key` in one pass.
#[must_use]
// hcperf-lint: det-sink(store-cell-id): cell addresses must be a pure function of (fingerprint, key)
pub fn cell_id(fingerprint: &str, key: &str) -> CellId {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let (mut lo, mut hi) = (FNV_OFFSET, FNV_OFFSET_HI);
    let separator = [0x1f];
    for &b in fingerprint
        .as_bytes()
        .iter()
        .chain(&separator)
        .chain(key.as_bytes())
    {
        lo = (lo ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        hi = (hi ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    let mut id = String::with_capacity(32);
    for half in [lo, hi] {
        for shift in (0..16).rev() {
            id.push(char::from(HEX[((half >> (4 * shift)) & 0xf) as usize]));
        }
    }
    id
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_stable_and_separator_sensitive() {
        assert_eq!(fingerprint(&["a", "b"]), fingerprint(&["a", "b"]));
        assert_ne!(fingerprint(&["ab"]), fingerprint(&["a", "b"]));
        assert_ne!(fingerprint(&["ab", "c"]), fingerprint(&["a", "bc"]));
        assert_eq!(fingerprint(&[]).len(), 16);
    }

    #[test]
    fn cell_ids_are_32_hex_and_key_sensitive() {
        let fp = fingerprint(&["fleet", "seed=0xF1EE7", "v1"]);
        let a = cell_id(&fp, "fleet/car-following/vehicle=0");
        let b = cell_id(&fp, "fleet/car-following/vehicle=1");
        assert_eq!(a.len(), 32);
        assert_ne!(a, b);
        assert!(a.bytes().all(|c| c.is_ascii_hexdigit()));
        // The two halves are independent hashes, not copies.
        assert_ne!(&a[..16], &a[16..]);
        // The one-pass hash matches both halves hashed separately.
        let bytes = [fp.as_bytes(), &[0x1f], b"fleet/car-following/vehicle=0"].concat();
        let separate = format!(
            "{:016x}{:016x}",
            fnv1a64_with(FNV_OFFSET, &bytes),
            fnv1a64_with(FNV_OFFSET_HI, &bytes)
        );
        assert_eq!(a, separate);
        // Identity is fingerprint-sensitive too.
        let fp2 = fingerprint(&["fleet", "seed=0xF1EE7", "v2"]);
        assert_ne!(a, cell_id(&fp2, "fleet/car-following/vehicle=0"));
    }
}
