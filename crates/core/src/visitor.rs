//! Match visitors: what happens when the engine finds a match.
//!
//! The paper's experiments "enumerate the matches without storing them into
//! the file system" (§VIII-A); counting is the common case. Visitors receive
//! φ indexed by *pattern vertex* (`phi[u]` = data vertex mapped to `u`) and
//! can stop the search early.

use std::ops::ControlFlow;

use light_graph::VertexId;

/// Callback invoked once per match.
pub trait MatchVisitor {
    /// `phi[u]` is the data vertex mapped to pattern vertex `u`.
    /// Return `ControlFlow::Break(())` to stop the enumeration.
    fn on_match(&mut self, phi: &[VertexId]) -> ControlFlow<()>;
}

/// Counts matches (the engine also counts; this visitor is for when no
/// other behavior is needed).
#[derive(Debug, Default)]
pub struct CountVisitor {
    /// Matches seen so far.
    pub count: u64,
}

impl MatchVisitor for CountVisitor {
    #[inline]
    fn on_match(&mut self, _phi: &[VertexId]) -> ControlFlow<()> {
        self.count += 1;
        ControlFlow::Continue(())
    }
}

/// Collects every match. Memory-hungry; test/demo use only.
#[derive(Debug, Default)]
pub struct CollectVisitor {
    matches: Vec<Vec<VertexId>>,
}

impl CollectVisitor {
    /// Consume the visitor, returning the collected matches.
    pub fn into_matches(self) -> Vec<Vec<VertexId>> {
        self.matches
    }

    /// The matches collected so far.
    pub fn matches(&self) -> &[Vec<VertexId>] {
        &self.matches
    }
}

impl MatchVisitor for CollectVisitor {
    fn on_match(&mut self, phi: &[VertexId]) -> ControlFlow<()> {
        self.matches.push(phi.to_vec());
        ControlFlow::Continue(())
    }
}

/// Stops after `k` matches (top-k / existence queries).
#[derive(Debug)]
pub struct FirstKVisitor {
    k: u64,
    matches: Vec<Vec<VertexId>>,
}

impl FirstKVisitor {
    /// Stop after `k` matches.
    pub fn new(k: u64) -> Self {
        FirstKVisitor {
            k,
            matches: Vec::new(),
        }
    }

    /// The matches collected so far (at most `k`).
    pub fn matches(&self) -> &[Vec<VertexId>] {
        &self.matches
    }
}

impl MatchVisitor for FirstKVisitor {
    fn on_match(&mut self, phi: &[VertexId]) -> ControlFlow<()> {
        if (self.matches.len() as u64) < self.k {
            self.matches.push(phi.to_vec());
        }
        if self.matches.len() as u64 >= self.k {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

/// Adapts a closure into a visitor.
pub struct FnVisitor<F: FnMut(&[VertexId]) -> ControlFlow<()>>(pub F);

impl<F: FnMut(&[VertexId]) -> ControlFlow<()>> MatchVisitor for FnVisitor<F> {
    #[inline]
    fn on_match(&mut self, phi: &[VertexId]) -> ControlFlow<()> {
        (self.0)(phi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_visitor() {
        let mut v = CountVisitor::default();
        assert_eq!(v.on_match(&[0, 1]), ControlFlow::Continue(()));
        assert_eq!(v.on_match(&[1, 2]), ControlFlow::Continue(()));
        assert_eq!(v.count, 2);
    }

    #[test]
    fn collect_visitor() {
        let mut v = CollectVisitor::default();
        let _ = v.on_match(&[3, 4]);
        assert_eq!(v.matches(), &[vec![3, 4]]);
        assert_eq!(v.into_matches(), vec![vec![3, 4]]);
    }

    #[test]
    fn first_k_stops() {
        let mut v = FirstKVisitor::new(2);
        assert_eq!(v.on_match(&[0]), ControlFlow::Continue(()));
        assert_eq!(v.on_match(&[1]), ControlFlow::Break(()));
        assert_eq!(v.matches().len(), 2);

        let mut none = FirstKVisitor::new(0);
        assert_eq!(none.on_match(&[0]), ControlFlow::Break(()));
        assert!(none.matches().is_empty());
    }

    #[test]
    fn fn_visitor() {
        let mut seen = 0u32;
        {
            let mut v = FnVisitor(|_phi: &[VertexId]| {
                seen += 1;
                ControlFlow::Continue(())
            });
            let _ = v.on_match(&[9]);
        }
        assert_eq!(seen, 1);
    }
}
