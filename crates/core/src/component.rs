//! State components and state spaces.
//!
//! An abstract model declares the *shape* of its state as a list of named
//! components (paper Fig 20): booleans and bounded integers. The cartesian
//! product of the component ranges is the **state space**; each point in it
//! is a [`StateVector`]. For the commit protocol with replication factor
//! `r` the space has `2^5 * r^2` points (paper §3.4).

use std::collections::BTreeMap;
use std::fmt;

use crate::error::{ParseNameError, SchemaError};

/// The kind (and therefore range) of a single state component.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ComponentKind {
    /// A boolean flag, rendered `T` / `F` in state names.
    Bool,
    /// An integer in `0..=max`, rendered as the decimal value.
    Int {
        /// Inclusive maximum value.
        max: u32,
    },
}

impl ComponentKind {
    /// Number of distinct values of this component.
    pub fn cardinality(self) -> u64 {
        match self {
            ComponentKind::Bool => 2,
            ComponentKind::Int { max } => u64::from(max) + 1,
        }
    }
}

/// A named state component: one variable of the modelled algorithm that is
/// encoded into the generated machine's states.
///
/// Mirrors the paper's `BooleanComponent` / `IntComponent` (Fig 20).
///
/// # Examples
///
/// ```
/// use stategen_core::StateComponent;
///
/// let votes = StateComponent::int("votes_received", 3);
/// assert_eq!(votes.cardinality(), 4);
/// let flag = StateComponent::boolean("vote_sent");
/// assert_eq!(flag.cardinality(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StateComponent {
    name: String,
    kind: ComponentKind,
}

impl StateComponent {
    /// Declares a boolean component.
    pub fn boolean(name: impl Into<String>) -> Self {
        StateComponent {
            name: name.into(),
            kind: ComponentKind::Bool,
        }
    }

    /// Declares an integer component ranging over `0..=max`.
    ///
    /// The paper's `IntComponent("votes_received", replication_factor - 1)`
    /// corresponds to `StateComponent::int("votes_received", r - 1)`.
    pub fn int(name: impl Into<String>, max: u32) -> Self {
        StateComponent {
            name: name.into(),
            kind: ComponentKind::Int { max },
        }
    }

    /// The component's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The component's kind.
    pub fn kind(&self) -> ComponentKind {
        self.kind
    }

    /// Number of distinct values of this component.
    pub fn cardinality(&self) -> u64 {
        self.kind.cardinality()
    }
}

/// An ordered collection of [`StateComponent`]s defining a state space.
///
/// Component order is significant: it fixes the field order in rendered
/// state names (e.g. `T/2/F/0/F/F/F`, paper Fig 14) and the mixed-radix
/// encoding used by the generation engine.
///
/// # Examples
///
/// ```
/// use stategen_core::{StateComponent, StateSpace};
///
/// let space = StateSpace::new(vec![
///     StateComponent::boolean("update_received"),
///     StateComponent::int("votes_received", 3),
/// ])?;
/// assert_eq!(space.state_count(), 8);
/// # Ok::<(), stategen_core::SchemaError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateSpace {
    components: Vec<StateComponent>,
    index: BTreeMap<String, usize>,
    state_count: u64,
}

impl StateSpace {
    /// Builds a state space from an ordered list of components.
    ///
    /// # Errors
    ///
    /// Returns [`SchemaError`] if the list is empty, a name is duplicated or
    /// invalid, or the product of cardinalities exceeds `u32::MAX`.
    pub fn new(components: Vec<StateComponent>) -> Result<Self, SchemaError> {
        if components.is_empty() {
            return Err(SchemaError::Empty);
        }
        let mut index = BTreeMap::new();
        let mut count: u128 = 1;
        for (i, c) in components.iter().enumerate() {
            if c.name.is_empty() || c.name.contains('/') {
                return Err(SchemaError::InvalidComponentName(c.name.clone()));
            }
            if index.insert(c.name.clone(), i).is_some() {
                return Err(SchemaError::DuplicateComponent(c.name.clone()));
            }
            count *= u128::from(c.cardinality());
            if count > u128::from(u32::MAX) {
                return Err(SchemaError::TooManyStates(count));
            }
        }
        Ok(StateSpace {
            components,
            index,
            state_count: count as u64,
        })
    }

    /// The components in declaration order.
    pub fn components(&self) -> &[StateComponent] {
        &self.components
    }

    /// Number of components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// Total number of states in the space (product of cardinalities).
    pub fn state_count(&self) -> u64 {
        self.state_count
    }

    /// A vector with every component at its minimum (false / 0).
    pub fn zero_vector(&self) -> StateVector {
        StateVector {
            values: vec![0; self.components.len()],
        }
    }

    /// Checks that `v` has the right arity and in-range values.
    pub fn contains(&self, v: &StateVector) -> bool {
        v.values.len() == self.components.len()
            && v.values
                .iter()
                .zip(&self.components)
                .all(|(&val, c)| u64::from(val) < c.cardinality())
    }

    /// Encodes a vector as a mixed-radix code in `0..state_count()`.
    ///
    /// The first component is the most significant digit, so enumeration
    /// order matches lexicographic order of the vectors.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not inside this space (see [`StateSpace::contains`]).
    pub fn encode(&self, v: &StateVector) -> u64 {
        assert!(
            self.contains(v),
            "vector {:?} outside state space",
            v.values
        );
        let mut code: u64 = 0;
        for (val, c) in v.values.iter().zip(&self.components) {
            code = code * c.cardinality() + u64::from(*val);
        }
        code
    }

    /// Decodes a mixed-radix code back into a vector.
    ///
    /// # Panics
    ///
    /// Panics if `code >= state_count()`.
    pub fn decode(&self, code: u64) -> StateVector {
        assert!(code < self.state_count, "code {code} out of range");
        let mut values = vec![0u32; self.components.len()];
        let mut rest = code;
        for (slot, c) in values.iter_mut().zip(&self.components).rev() {
            let card = c.cardinality();
            *slot = (rest % card) as u32;
            rest /= card;
        }
        StateVector { values }
    }

    /// Iterates over every vector in the space in encoding order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            space: self,
            next: 0,
        }
    }

    /// Renders the paper-style `/`-separated state name (`T/2/F/...`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is not inside this space.
    pub fn name_of(&self, v: &StateVector) -> String {
        assert!(
            self.contains(v),
            "vector {:?} outside state space",
            v.values
        );
        let mut out = String::new();
        for (i, (val, c)) in v.values.iter().zip(&self.components).enumerate() {
            if i > 0 {
                out.push('/');
            }
            match c.kind {
                ComponentKind::Bool => out.push(if *val != 0 { 'T' } else { 'F' }),
                ComponentKind::Int { .. } => out.push_str(&val.to_string()),
            }
        }
        out
    }

    /// Parses a `/`-separated state name back into a vector.
    ///
    /// # Errors
    ///
    /// Returns [`ParseNameError`] on arity mismatch, unparseable fields or
    /// out-of-range values.
    pub fn parse_name(&self, name: &str) -> Result<StateVector, ParseNameError> {
        let fields: Vec<&str> = name.split('/').collect();
        if fields.len() != self.components.len() {
            return Err(ParseNameError::WrongArity {
                found: fields.len(),
                expected: self.components.len(),
            });
        }
        let mut values = Vec::with_capacity(fields.len());
        for (i, (field, c)) in fields.iter().zip(&self.components).enumerate() {
            let value = match c.kind {
                ComponentKind::Bool => match *field {
                    "T" => 1,
                    "F" => 0,
                    _ => {
                        return Err(ParseNameError::BadField {
                            index: i,
                            text: field.to_string(),
                        })
                    }
                },
                ComponentKind::Int { max } => {
                    let v: u32 = field.parse().map_err(|_| ParseNameError::BadField {
                        index: i,
                        text: field.to_string(),
                    })?;
                    if v > max {
                        return Err(ParseNameError::OutOfRange {
                            index: i,
                            value: v,
                            max,
                        });
                    }
                    v
                }
            };
            values.push(value);
        }
        Ok(StateVector { values })
    }
}

/// Iterator over all vectors of a [`StateSpace`] in encoding order.
#[derive(Debug)]
pub struct Iter<'a> {
    space: &'a StateSpace,
    next: u64,
}

impl Iterator for Iter<'_> {
    type Item = StateVector;

    fn next(&mut self) -> Option<StateVector> {
        if self.next >= self.space.state_count {
            return None;
        }
        let v = self.space.decode(self.next);
        self.next += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = (self.space.state_count - self.next) as usize;
        (rest, Some(rest))
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// One point in a [`StateSpace`]: a concrete value for every component.
///
/// A `StateVector` does not carry a reference to its space; the owner is
/// responsible for pairing vectors with the space that produced them (the
/// generation engine validates vectors at its boundaries).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateVector {
    values: Vec<u32>,
}

impl StateVector {
    /// Raw component values in declaration order.
    pub fn values(&self) -> &[u32] {
        &self.values
    }

    /// Value of component `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn get(&self, idx: usize) -> u32 {
        self.values[idx]
    }

    /// Sets component `idx` to `value`.
    ///
    /// Range checking against the component maximum happens when the vector
    /// crosses an engine boundary; callers that need eager checks should use
    /// [`StateSpace::contains`].
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn set(&mut self, idx: usize, value: u32) {
        self.values[idx] = value;
    }

    /// Value of a boolean component.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn flag(&self, idx: usize) -> bool {
        self.values[idx] != 0
    }

    /// Sets a boolean component.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn set_flag(&mut self, idx: usize, value: bool) {
        self.values[idx] = u32::from(value);
    }
}

impl fmt::Display for StateVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, "/")?;
            }
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn commit_space(r: u32) -> StateSpace {
        StateSpace::new(vec![
            StateComponent::boolean("update_received"),
            StateComponent::int("votes_received", r - 1),
            StateComponent::boolean("vote_sent"),
            StateComponent::int("commits_received", r - 1),
            StateComponent::boolean("commit_sent"),
            StateComponent::boolean("could_choose"),
            StateComponent::boolean("has_chosen"),
        ])
        .expect("valid schema")
    }

    #[test]
    fn commit_space_size_matches_paper() {
        // Paper §3.4: 2^5 * r^2 states; 512 for r = 4.
        assert_eq!(commit_space(4).state_count(), 512);
        assert_eq!(commit_space(7).state_count(), 1568);
        assert_eq!(commit_space(13).state_count(), 5408);
        assert_eq!(commit_space(25).state_count(), 20000);
        assert_eq!(commit_space(46).state_count(), 67712);
    }

    #[test]
    fn empty_space_rejected() {
        assert_eq!(StateSpace::new(vec![]), Err(SchemaError::Empty));
    }

    #[test]
    fn duplicate_component_rejected() {
        let err = StateSpace::new(vec![
            StateComponent::boolean("a"),
            StateComponent::boolean("a"),
        ])
        .unwrap_err();
        assert_eq!(err, SchemaError::DuplicateComponent("a".into()));
    }

    #[test]
    fn invalid_name_rejected() {
        let err = StateSpace::new(vec![StateComponent::boolean("a/b")]).unwrap_err();
        assert_eq!(err, SchemaError::InvalidComponentName("a/b".into()));
        let err = StateSpace::new(vec![StateComponent::boolean("")]).unwrap_err();
        assert_eq!(err, SchemaError::InvalidComponentName(String::new()));
    }

    #[test]
    fn huge_space_rejected() {
        let comps: Vec<StateComponent> = (0..8)
            .map(|i| StateComponent::int(format!("c{i}"), 255))
            .collect();
        assert!(matches!(
            StateSpace::new(comps),
            Err(SchemaError::TooManyStates(_))
        ));
    }

    #[test]
    fn encode_decode_roundtrip_exhaustive() {
        let space = commit_space(4);
        for (expected, v) in space.iter().enumerate() {
            let code = space.encode(&v);
            assert_eq!(code, expected as u64);
            assert_eq!(space.decode(code), v);
        }
    }

    #[test]
    fn names_match_paper_format() {
        let space = commit_space(4);
        let mut v = space.zero_vector();
        v.set_flag(0, true);
        v.set(1, 2);
        assert_eq!(space.name_of(&v), "T/2/F/0/F/F/F");
    }

    #[test]
    fn parse_name_roundtrip() {
        let space = commit_space(4);
        let v = space.parse_name("T/2/F/0/F/F/F").expect("parse");
        assert_eq!(space.name_of(&v), "T/2/F/0/F/F/F");
        assert!(v.flag(0));
        assert_eq!(v.get(1), 2);
    }

    #[test]
    fn parse_name_errors() {
        let space = commit_space(4);
        assert!(matches!(
            space.parse_name("T/2"),
            Err(ParseNameError::WrongArity { .. })
        ));
        assert!(matches!(
            space.parse_name("X/2/F/0/F/F/F"),
            Err(ParseNameError::BadField { index: 0, .. })
        ));
        assert!(matches!(
            space.parse_name("T/9/F/0/F/F/F"),
            Err(ParseNameError::OutOfRange {
                index: 1,
                value: 9,
                max: 3
            })
        ));
    }

    #[test]
    fn contains_checks_arity_and_range() {
        let space = commit_space(4);
        let mut v = space.zero_vector();
        assert!(space.contains(&v));
        v.set(1, 3);
        assert!(space.contains(&v));
        v.set(1, 4);
        assert!(!space.contains(&v));
    }

    #[test]
    fn iter_is_exact_size() {
        let space = commit_space(4);
        let it = space.iter();
        assert_eq!(it.len(), 512);
        assert_eq!(space.iter().count(), 512);
    }

    #[test]
    fn display_renders_raw_values() {
        let space = commit_space(4);
        let v = space.parse_name("T/2/F/0/F/F/F").expect("parse");
        assert_eq!(v.to_string(), "1/2/0/0/0/0/0");
    }
}
