//! The `FSM_FUSION_*` environment knobs shared across the workspace.
//!
//! One process-wide convention selects the parallel product builder: the
//! reachable-product builder in this crate
//! ([`crate::ReachableProduct::new`]) and the sessions of `fsm-fusion-core`
//! (`FusionConfig::from_env`) consult the same variables, so a test suite
//! or deployment opts a whole pipeline into parallelism with a single
//! `export`.  The same module hosts
//! the sizing knobs of the product builder: `FSM_FUSION_DENSE_LIMIT` (the
//! dense-interner crossover) and `FSM_FUSION_MEM_BUDGET` (the streaming
//! build's resident-memory budget).  Every knob follows the established
//! precedence: explicit builder/config call > environment snapshot >
//! default.

/// Worker count requested through the `FSM_FUSION_WORKERS` environment
/// variable: unset, empty, `0` or `1` select the sequential paths, `auto`
/// selects [`std::thread::available_parallelism`], and any other number is
/// used as given.  Unparseable values fall back to sequential.
pub fn configured_workers() -> usize {
    match std::env::var("FSM_FUSION_WORKERS") {
        Ok(v) => parse_workers(&v),
        Err(_) => 1,
    }
}

/// The `FSM_FUSION_WORKERS` value convention, as a pure function so the
/// parsing rules are testable (and reusable by `fsm-fusion-core`'s
/// `FusionConfig`) without mutating the process environment.
pub fn parse_workers(value: &str) -> usize {
    match value.trim() {
        "" | "0" | "1" => 1,
        "auto" => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        s => s.parse().unwrap_or(1),
    }
}

/// Dense-interner limit requested through `FSM_FUSION_DENSE_LIMIT`, or
/// `None` when the variable is unset/unparseable (callers then fall back
/// to `ProductBuilder`'s compiled-in default).  Accepts the same byte-size
/// grammar as [`parse_byte_size`], interpreted as a *state count* — plain
/// numbers are counts, and `k`/`m`/`g` suffixes scale by 2¹⁰/2²⁰/2³⁰.
pub fn configured_dense_limit() -> Option<u64> {
    std::env::var("FSM_FUSION_DENSE_LIMIT")
        .ok()
        .and_then(|v| parse_byte_size(&v))
}

/// Memory budget requested through `FSM_FUSION_MEM_BUDGET` (bytes, with
/// optional `k`/`m`/`g` suffixes), or `None` when unset/unparseable.
pub fn configured_mem_budget() -> Option<u64> {
    std::env::var("FSM_FUSION_MEM_BUDGET")
        .ok()
        .and_then(|v| parse_byte_size(&v))
}

/// The size-value convention shared by `FSM_FUSION_DENSE_LIMIT` and
/// `FSM_FUSION_MEM_BUDGET`, as a pure function so the rules are testable
/// without mutating the process environment: a plain non-negative integer,
/// optionally scaled by a case-insensitive `k`/`m`/`g` (or `kb`/`mb`/`gb`,
/// `kib`/`mib`/`gib`) suffix.  Empty or unparseable values are `None`, as
/// are values whose scaled magnitude overflows `u64`.
pub fn parse_byte_size(value: &str) -> Option<u64> {
    let s = value.trim().to_ascii_lowercase();
    if s.is_empty() {
        return None;
    }
    let (digits, mult) = match s.find(|c: char| !c.is_ascii_digit()) {
        None => (s.as_str(), 1u64),
        Some(pos) => {
            let mult = match &s[pos..] {
                "k" | "kb" | "kib" => 1u64 << 10,
                "m" | "mb" | "mib" => 1u64 << 20,
                "g" | "gb" | "gib" => 1u64 << 30,
                _ => return None,
            };
            (&s[..pos], mult)
        }
    };
    if digits.is_empty() {
        return None;
    }
    digits.parse::<u64>().ok()?.checked_mul(mult)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_workers_follows_the_env_convention() {
        // The parser is a pure function, so the rules are testable without
        // mutating the process environment (other tests in this binary run
        // concurrently).
        for sequential in ["", " ", "0", "1", " 1 ", "garbage", "-3", "2.5"] {
            assert_eq!(parse_workers(sequential), 1, "value {sequential:?}");
        }
        assert_eq!(parse_workers("2"), 2);
        assert_eq!(parse_workers(" 16 "), 16);
        assert!(parse_workers("auto") >= 1);
        // And the env-reading wrapper stays callable.
        assert!(configured_workers() >= 1);
    }

    #[test]
    fn parse_byte_size_follows_the_env_convention() {
        assert_eq!(parse_byte_size("0"), Some(0));
        assert_eq!(parse_byte_size("4194304"), Some(4194304));
        assert_eq!(parse_byte_size(" 64k "), Some(64 << 10));
        assert_eq!(parse_byte_size("64K"), Some(64 << 10));
        assert_eq!(parse_byte_size("3m"), Some(3 << 20));
        assert_eq!(parse_byte_size("3MiB"), Some(3 << 20));
        assert_eq!(parse_byte_size("2gb"), Some(2u64 << 30));
        for bad in [
            "",
            " ",
            "k",
            "-1",
            "2.5m",
            "64x",
            "garbage",
            "99999999999999999999",
        ] {
            assert_eq!(parse_byte_size(bad), None, "value {bad:?}");
        }
        // Scaled overflow is rejected, not wrapped.
        assert_eq!(parse_byte_size("99999999999999999g"), None);
    }
}
