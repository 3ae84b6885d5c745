//! States and state identifiers.

use std::fmt;

/// Index of a state inside a [`crate::Dfsm`].
///
/// State ids are dense indices `0..n` assigned in insertion order by the
/// [`crate::DfsmBuilder`].  The initial state may have any id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub usize);

impl StateId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl From<usize> for StateId {
    fn from(i: usize) -> Self {
        StateId(i)
    }
}

/// Metadata attached to a state: a human-readable name and an optional
/// output label.
///
/// Output labels are not part of the paper's DFSM quadruple, but they are
/// useful when minimizing machines (Moore-style reduction, Section 1's
/// "reduced a priori" assumption) and when pretty-printing protocol machines
/// such as MESI or TCP.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateInfo {
    /// Human-readable state name, e.g. `"ESTABLISHED"` or `"a0"`.
    pub name: String,
    /// Optional output label used for Moore-style minimization.
    pub output: Option<String>,
}

impl StateInfo {
    /// Creates state metadata with no output label.
    pub fn named(name: impl Into<String>) -> Self {
        StateInfo {
            name: name.into(),
            output: None,
        }
    }

    /// Creates state metadata named `{a,b,…}` after the states `parts` it
    /// stands for — a product tuple, a block of a quotient — written into
    /// one string sized up front.
    pub fn braced<'a>(parts: impl Iterator<Item = &'a str> + Clone) -> Self {
        let (count, len) = parts.clone().fold((0, 0), |(c, l), p| (c + 1, l + p.len()));
        let mut name = String::with_capacity(len + count.max(1) + 1);
        name.push('{');
        for (i, part) in parts.enumerate() {
            if i > 0 {
                name.push(',');
            }
            name.push_str(part);
        }
        name.push('}');
        StateInfo::named(name)
    }

    /// Creates state metadata with an output label.
    pub fn with_output(name: impl Into<String>, output: impl Into<String>) -> Self {
        StateInfo {
            name: name.into(),
            output: Some(output.into()),
        }
    }
}

impl fmt::Display for StateInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.output {
            Some(o) => write!(f, "{}[{}]", self.name, o),
            None => f.write_str(&self.name),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_id_roundtrip() {
        let s = StateId(7);
        assert_eq!(s.index(), 7);
        assert_eq!(StateId::from(7), s);
        assert_eq!(format!("{s}"), "s7");
    }

    #[test]
    fn state_info_display() {
        assert_eq!(format!("{}", StateInfo::named("idle")), "idle");
        assert_eq!(
            format!("{}", StateInfo::with_output("idle", "0")),
            "idle[0]"
        );
    }

    #[test]
    fn state_info_equality() {
        assert_eq!(StateInfo::named("a"), StateInfo::named("a"));
        assert_ne!(StateInfo::named("a"), StateInfo::with_output("a", "x"));
    }
}
