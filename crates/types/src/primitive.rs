//! Built-in primitive types and the implicit numeric widening relation.
//!
//! The paper extends type distance "to consider primitive types": two
//! primitives related by an implicit widening conversion are at distance 1.
//! The widening relation below mirrors C#'s implicit numeric conversions
//! (ECMA-334 §10.2.3), which is the universe the paper evaluated on.

/// The built-in primitive kinds of the modelled language.
///
/// `String` is included because the paper's ranking function treats `string`
/// as a primitive ("primitive types, including string, are ignored" by the
/// common-namespace term), even though at the CLR level it is a class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PrimKind {
    /// `bool`
    Bool,
    /// `char`
    Char,
    /// `sbyte` (8-bit signed)
    SByte,
    /// `byte` (8-bit unsigned)
    Byte,
    /// `short` (16-bit signed)
    Short,
    /// `ushort` (16-bit unsigned)
    UShort,
    /// `int` (32-bit signed)
    Int,
    /// `uint` (32-bit unsigned)
    UInt,
    /// `long` (64-bit signed)
    Long,
    /// `ulong` (64-bit unsigned)
    ULong,
    /// `float` (32-bit IEEE)
    Float,
    /// `double` (64-bit IEEE)
    Double,
    /// `decimal` (128-bit decimal)
    Decimal,
    /// `string`
    String,
}

impl PrimKind {
    /// All primitive kinds, in declaration order.
    pub const ALL: [PrimKind; 14] = [
        PrimKind::Bool,
        PrimKind::Char,
        PrimKind::SByte,
        PrimKind::Byte,
        PrimKind::Short,
        PrimKind::UShort,
        PrimKind::Int,
        PrimKind::UInt,
        PrimKind::Long,
        PrimKind::ULong,
        PrimKind::Float,
        PrimKind::Double,
        PrimKind::Decimal,
        PrimKind::String,
    ];

    /// Position of this kind in [`PrimKind::ALL`].
    pub(crate) fn index(self) -> u32 {
        self as u32
    }

    /// The C# keyword naming this primitive.
    pub fn keyword(self) -> &'static str {
        match self {
            PrimKind::Bool => "bool",
            PrimKind::Char => "char",
            PrimKind::SByte => "sbyte",
            PrimKind::Byte => "byte",
            PrimKind::Short => "short",
            PrimKind::UShort => "ushort",
            PrimKind::Int => "int",
            PrimKind::UInt => "uint",
            PrimKind::Long => "long",
            PrimKind::ULong => "ulong",
            PrimKind::Float => "float",
            PrimKind::Double => "double",
            PrimKind::Decimal => "decimal",
            PrimKind::String => "string",
        }
    }

    /// Parses a C# primitive keyword.
    pub fn from_keyword(kw: &str) -> Option<PrimKind> {
        PrimKind::ALL.iter().copied().find(|p| p.keyword() == kw)
    }

    /// Whether the kind is numeric (participates in widening and in the
    /// relational operators `<`, `<=`, `>`, `>=`).
    pub fn is_numeric(self) -> bool {
        !matches!(self, PrimKind::Bool | PrimKind::String)
    }

    /// Whether values of this kind are ordered by the relational operators.
    ///
    /// Numerics and `char` are; `bool` and `string` are not (C# defines no
    /// `<` on either).
    pub fn is_ordered(self) -> bool {
        self.is_numeric()
    }

    /// Whether there is an *implicit* conversion from `self` to `to`
    /// (identity excluded), per C#'s implicit numeric conversion table.
    pub fn widens_to(self, to: PrimKind) -> bool {
        use PrimKind::*;
        if self == to {
            return false;
        }
        let targets: &[PrimKind] = match self {
            SByte => &[Short, Int, Long, Float, Double, Decimal],
            Byte => &[
                Short, UShort, Int, UInt, Long, ULong, Float, Double, Decimal,
            ],
            Short => &[Int, Long, Float, Double, Decimal],
            UShort => &[Int, UInt, Long, ULong, Float, Double, Decimal],
            Int => &[Long, Float, Double, Decimal],
            UInt => &[Long, ULong, Float, Double, Decimal],
            Long => &[Float, Double, Decimal],
            ULong => &[Float, Double, Decimal],
            Char => &[UShort, Int, UInt, Long, ULong, Float, Double, Decimal],
            Float => &[Double],
            Bool | Double | Decimal | String => &[],
        };
        targets.contains(&to)
    }

    /// Whether `self` and `other` share an ordering, i.e. one implicitly
    /// converts to the other (or they are equal) and both are ordered.
    pub fn comparable_with(self, other: PrimKind) -> bool {
        if !self.is_ordered() || !other.is_ordered() {
            return false;
        }
        self == other || self.widens_to(other) || other.widens_to(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_round_trips() {
        for (i, p) in PrimKind::ALL.into_iter().enumerate() {
            assert_eq!(PrimKind::from_keyword(p.keyword()), Some(p));
            assert_eq!(p.index() as usize, i);
        }
        assert_eq!(PrimKind::from_keyword("object"), None);
    }

    #[test]
    fn widening_matches_csharp_table() {
        use PrimKind::*;
        assert!(Int.widens_to(Long));
        assert!(Int.widens_to(Double));
        assert!(!Int.widens_to(UInt));
        assert!(!Long.widens_to(Int));
        assert!(Char.widens_to(Int));
        assert!(!Int.widens_to(Char));
        assert!(Float.widens_to(Double));
        assert!(!Double.widens_to(Float));
        assert!(!Bool.widens_to(Int));
        assert!(!String.widens_to(Int));
        assert!(!Int.widens_to(Int));
    }

    #[test]
    fn widening_is_antisymmetric() {
        for a in PrimKind::ALL {
            for b in PrimKind::ALL {
                assert!(
                    !(a.widens_to(b) && b.widens_to(a)),
                    "widening must be antisymmetric: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn widening_is_transitive() {
        for a in PrimKind::ALL {
            for b in PrimKind::ALL {
                for c in PrimKind::ALL {
                    if a.widens_to(b) && b.widens_to(c) {
                        assert!(
                            a.widens_to(c),
                            "{a:?} -> {b:?} -> {c:?} must imply {a:?} -> {c:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn comparability() {
        use PrimKind::*;
        assert!(Int.comparable_with(Double));
        assert!(Double.comparable_with(Int));
        assert!(Int.comparable_with(Int));
        assert!(!Bool.comparable_with(Bool));
        assert!(!String.comparable_with(String));
        assert!(!Int.comparable_with(Bool));
        assert!(Char.comparable_with(Int));
    }
}
