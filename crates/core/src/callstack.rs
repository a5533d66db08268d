//! Function-name interning and call-stack bookkeeping.
//!
//! HeapMD instruments function entry points (they are its metric
//! computation points) and logs call-stacks around range violations so
//! bug reports carry the responsible function. The simulation's
//! workloads announce entries/exits through [`crate::Process`], which
//! interns names here.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// An interned function identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FuncId(pub u32);

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn#{}", self.0)
    }
}

/// Bidirectional function-name intern table.
///
/// # Example
///
/// ```
/// use heapmd::FunctionTable;
///
/// let mut t = FunctionTable::new();
/// let a = t.intern("ColListFree");
/// assert_eq!(t.intern("ColListFree"), a, "idempotent");
/// assert_eq!(t.name(a), "ColListFree");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FunctionTable {
    names: Vec<String>,
    #[serde(skip)]
    index: HashMap<String, FuncId>,
}

impl FunctionTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        FunctionTable::default()
    }

    /// Interns `name`, returning its stable id.
    pub fn intern(&mut self, name: &str) -> FuncId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = FuncId(self.names.len() as u32);
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        id
    }

    /// Looks up an already-interned name.
    pub fn get(&self, name: &str) -> Option<FuncId> {
        self.index.get(name).copied()
    }

    /// The name behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this table.
    pub fn name(&self, id: FuncId) -> &str {
        &self.names[id.0 as usize]
    }

    /// Number of interned functions.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Returns `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Renders a stack of ids as human-readable names, outermost first.
    /// An id past the table (a replayed trace with anonymous frames)
    /// renders as its placeholder `fn#<id>`.
    pub fn render_stack(&self, stack: &[FuncId]) -> Vec<String> {
        stack
            .iter()
            .map(|&f| match self.names.get(f.0 as usize) {
                Some(name) => name.clone(),
                None => f.to_string(),
            })
            .collect()
    }

    /// Rebuilds the lookup index after deserialization.
    pub fn rebuild_index(&mut self) {
        self.index = self
            .names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), FuncId(i as u32)))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut t = FunctionTable::new();
        let a = t.intern("main");
        let b = t.intern("helper");
        assert_eq!(a, FuncId(0));
        assert_eq!(b, FuncId(1));
        assert_eq!(t.intern("main"), a);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn get_does_not_intern() {
        let mut t = FunctionTable::new();
        assert_eq!(t.get("missing"), None);
        let id = t.intern("present");
        assert_eq!(t.get("present"), Some(id));
    }

    #[test]
    fn render_stack_outermost_first() {
        let mut t = FunctionTable::new();
        let main = t.intern("main");
        let inner = t.intern("inner");
        assert_eq!(t.render_stack(&[main, inner]), vec!["main", "inner"]);
    }

    #[test]
    fn serde_round_trip_with_index_rebuild() {
        let mut t = FunctionTable::new();
        t.intern("a");
        t.intern("b");
        let json = serde_json::to_string(&t).unwrap();
        let mut back: FunctionTable = serde_json::from_str(&json).unwrap();
        back.rebuild_index();
        assert_eq!(back.get("b"), Some(FuncId(1)));
        assert_eq!(back.name(FuncId(0)), "a");
    }
}
