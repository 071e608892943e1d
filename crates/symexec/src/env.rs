//! The symbolic environment: program variables → symbolic expressions.

use std::collections::BTreeMap;
use std::fmt;

use dise_solver::SymExpr;

/// A map from program-variable names to their current symbolic values.
/// The executor moves it from state to state and rebinds it in place;
/// only a fork clones it (values share sub-expressions via `Arc`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Env {
    bindings: BTreeMap<String, SymExpr>,
}

impl Env {
    /// The empty environment.
    pub fn new() -> Env {
        Env::default()
    }

    /// The symbolic value of `name`, if bound.
    pub fn get(&self, name: &str) -> Option<&SymExpr> {
        self.bindings.get(name)
    }

    /// Binds (or rebinds) `name` in place — the effect of an assignment.
    /// Rebinding a bound name allocates nothing.
    pub fn bind(&mut self, name: &str, value: SymExpr) {
        match self.bindings.get_mut(name) {
            Some(slot) => *slot = value,
            None => {
                self.bindings.insert(name.to_string(), value);
            }
        }
    }

    /// Iterates over `(name, value)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &SymExpr)> {
        self.bindings.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// Returns `true` if no variable is bound.
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }
}

impl fmt::Display for Env {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (name, value) in &self.bindings {
            if !first {
                f.write_str(", ")?;
            }
            write!(f, "{name}: {value}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dise_solver::{SymTy, VarPool};

    #[test]
    fn bind_and_get() {
        let mut pool = VarPool::new();
        let x = pool.fresh("X", SymTy::Int);
        let mut env = Env::new();
        env.bind("x", SymExpr::var(&x));
        assert_eq!(env.get("x"), Some(&SymExpr::var(&x)));
        assert_eq!(env.get("y"), None);
        assert_eq!(env.len(), 1);
    }

    #[test]
    fn bind_rebinds_in_place() {
        let mut env = Env::new();
        env.bind("x", SymExpr::int(1));
        let before = env.clone();
        env.bind("x", SymExpr::int(2));
        assert_eq!(before.get("x"), Some(&SymExpr::int(1)));
        assert_eq!(env.get("x"), Some(&SymExpr::int(2)));
        assert_eq!(env.len(), 1);
    }

    #[test]
    fn display_matches_paper_style() {
        let mut pool = VarPool::new();
        let x = pool.fresh("X", SymTy::Int);
        let y = pool.fresh("Y", SymTy::Int);
        let mut env = Env::new();
        env.bind("x", SymExpr::var(&x));
        env.bind("y", SymExpr::add(SymExpr::var(&y), SymExpr::var(&x)));
        assert_eq!(env.to_string(), "x: X, y: Y + X");
    }

    #[test]
    fn empty_env() {
        let env = Env::new();
        assert!(env.is_empty());
        assert_eq!(env.to_string(), "");
    }
}
