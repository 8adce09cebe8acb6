//! Interned MiniLam types.

use std::collections::HashMap;

use crate::ast::Type;

/// An interned type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TypeId(u32);

impl TypeId {
    /// The type's index within its table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum TyNode {
    Int,
    Pair(TypeId, TypeId),
}

/// An interning table for MiniLam types; subterms are shared.
#[derive(Debug, Clone, Default)]
pub struct TypeTable {
    nodes: Vec<TyNode>,
    by_node: HashMap<TyNode, TypeId>,
}

impl TypeTable {
    /// An empty table.
    pub fn new() -> TypeTable {
        TypeTable::default()
    }

    /// Interns a surface type (and its subterms).
    pub fn intern(&mut self, ty: &Type) -> TypeId {
        let node = match ty {
            Type::Int => TyNode::Int,
            Type::Pair(a, b) => {
                let a = self.intern(a);
                let b = self.intern(b);
                TyNode::Pair(a, b)
            }
        };
        self.intern_node(node)
    }

    fn intern_node(&mut self, node: TyNode) -> TypeId {
        if let Some(&id) = self.by_node.get(&node) {
            return id;
        }
        let Ok(index) = u32::try_from(self.nodes.len()) else {
            panic!("capacity overflow: too many types (limit 2^32)");
        };
        let id = TypeId(index);
        self.nodes.push(node);
        self.by_node.insert(node, id);
        id
    }

    /// The pair type `(a, b)` of two interned types.
    pub(crate) fn pair(&mut self, a: TypeId, b: TypeId) -> TypeId {
        self.intern_node(TyNode::Pair(a, b))
    }

    /// The `int` type (interned on demand).
    pub fn int(&mut self) -> TypeId {
        self.intern_node(TyNode::Int)
    }

    /// Whether `t` is a pair type.
    pub fn is_pair(&self, t: TypeId) -> bool {
        matches!(self.nodes[t.index()], TyNode::Pair(..))
    }

    /// The `i`-th component of a pair type (0-based).
    pub fn component(&self, t: TypeId, i: usize) -> Option<TypeId> {
        match self.nodes[t.index()] {
            TyNode::Pair(a, b) => Some(if i == 0 { a } else { b }),
            TyNode::Int => None,
        }
    }

    /// All interned types.
    pub fn all(&self) -> impl Iterator<Item = TypeId> {
        (0..self.nodes.len() as u32).map(TypeId)
    }

    /// All interned *pair* types.
    pub fn pairs(&self) -> impl Iterator<Item = TypeId> + '_ {
        self.all().filter(|&t| self.is_pair(t))
    }

    /// Renders a type for diagnostics.
    pub fn render(&self, t: TypeId) -> String {
        match self.nodes[t.index()] {
            TyNode::Int => "int".to_owned(),
            TyNode::Pair(a, b) => format!("({}, {})", self.render(a), self.render(b)),
        }
    }

    /// The maximum nesting depth over all interned types (the bound the
    /// paper places on bracket-annotation strings, §7.2.2).
    pub fn max_depth(&self) -> usize {
        self.all().map(|t| self.depth(t)).max().unwrap_or(0)
    }

    fn depth(&self, t: TypeId) -> usize {
        match self.nodes[t.index()] {
            TyNode::Int => 1,
            TyNode::Pair(a, b) => 1 + self.depth(a).max(self.depth(b)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_shares_subterms() {
        let mut table = TypeTable::new();
        let t1 = table.intern(&Type::Pair(Box::new(Type::Int), Box::new(Type::Int)));
        let t2 = table.intern(&Type::Pair(Box::new(Type::Int), Box::new(Type::Int)));
        assert_eq!(t1, t2);
        assert_eq!(table.all().count(), 2); // int and the pair
        assert!(table.is_pair(t1));
        assert_eq!(table.component(t1, 0), Some(table.int()));
    }

    #[test]
    fn depth_of_nested_pairs() {
        let mut table = TypeTable::new();
        let nested = Type::Pair(
            Box::new(Type::Pair(Box::new(Type::Int), Box::new(Type::Int))),
            Box::new(Type::Int),
        );
        table.intern(&nested);
        assert_eq!(table.max_depth(), 3);
        assert_eq!(table.pairs().count(), 2);
    }
}
