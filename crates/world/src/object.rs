//! World-plane objects and their attributes (paper §2.1).
//!
//! `O` is the set of external world objects, "each with a set of
//! attributes, that can be sensed and/or controlled by the sensor/actuator
//! processes". Objects have **no access to any clock** — their events carry
//! ground-truth timestamps only so the simulator can score detectors; no
//! process ever reads them.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

/// Identity of a world object (dense, per scenario).
pub(crate) type ObjectId = usize;

/// Identity of an attribute within an object (dense, per object).
pub(crate) type AttrId = usize;

/// A fully qualified attribute: which object, which attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AttrKey {
    /// The object.
    pub object: ObjectId,
    /// The attribute within that object.
    pub attr: AttrId,
}

impl AttrKey {
    /// Shorthand constructor.
    pub fn new(object: ObjectId, attr: AttrId) -> Self {
        AttrKey { object, attr }
    }
}

/// The value of one attribute at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AttrValue {
    /// A boolean attribute (motion detected, door open, …).
    Bool(bool),
    /// An integer attribute (people counted through a door, …).
    Int(i64),
    /// A continuous attribute (temperature, …).
    Float(f64),
}

impl AttrValue {
    /// The value as an integer; booleans map to 0/1, floats truncate.
    pub fn as_int(&self) -> i64 {
        match *self {
            AttrValue::Bool(b) => i64::from(b),
            AttrValue::Int(i) => i,
            AttrValue::Float(f) => f as i64,
        }
    }

    /// The value as a float.
    pub fn as_float(&self) -> f64 {
        match *self {
            AttrValue::Bool(b) => f64::from(u8::from(b)),
            AttrValue::Int(i) => i as f64,
            AttrValue::Float(f) => f,
        }
    }

    /// The value as a boolean; numbers are true iff nonzero.
    pub fn as_bool(&self) -> bool {
        match *self {
            AttrValue::Bool(b) => b,
            AttrValue::Int(i) => i != 0,
            AttrValue::Float(f) => f != 0.0,
        }
    }
}

/// A static description of one world object.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObjectSpec {
    /// Dense object id.
    pub id: ObjectId,
    /// Human-readable name ("door-3", "room-B-temp", "pen").
    pub name: String,
    /// Attribute names and initial values, indexed by `AttrId`.
    pub attrs: Vec<(String, AttrValue)>,
}

impl ObjectSpec {
    /// Look up an attribute id by name.
    pub fn attr_id(&self, name: &str) -> Option<AttrId> {
        self.attrs.iter().position(|(n, _)| n == name)
    }
}

/// The instantaneous ground-truth state of the world plane: every
/// attribute's current value.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WorldState {
    values: HashMap<AttrKey, AttrValue>,
}

impl WorldState {
    /// The state induced by the objects' initial attribute values.
    pub fn initial(objects: &[ObjectSpec]) -> Self {
        let mut values = HashMap::new();
        for o in objects {
            for (attr, (_, v)) in o.attrs.iter().enumerate() {
                values.insert(AttrKey::new(o.id, attr), *v);
            }
        }
        WorldState { values }
    }

    /// Read an attribute (None if never set).
    pub fn get(&self, key: AttrKey) -> Option<AttrValue> {
        self.values.get(&key).copied()
    }

    /// Read an attribute as an integer, defaulting to 0.
    pub fn get_int(&self, key: AttrKey) -> i64 {
        self.get(key).map(|v| v.as_int()).unwrap_or(0)
    }

    /// Read an attribute as a float, defaulting to 0.0.
    pub(crate) fn get_float(&self, key: AttrKey) -> f64 {
        self.get(key).map(|v| v.as_float()).unwrap_or(0.0)
    }

    /// Read an attribute as a boolean, defaulting to false.
    pub(crate) fn get_bool(&self, key: AttrKey) -> bool {
        self.get(key).map(|v| v.as_bool()).unwrap_or(false)
    }

    /// Overwrite an attribute, returning the previous value.
    pub fn set(&mut self, key: AttrKey, value: AttrValue) -> Option<AttrValue> {
        self.values.insert(key, value)
    }

    /// Number of attributes tracked.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no attribute was ever set.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_value_conversions() {
        assert_eq!(AttrValue::Bool(true).as_int(), 1);
        assert_eq!(AttrValue::Int(-3).as_float(), -3.0);
        assert!(AttrValue::Float(0.5).as_bool());
        assert!(!AttrValue::Int(0).as_bool());
        assert_eq!(AttrValue::Float(2.9).as_int(), 2);
    }

    #[test]
    fn initial_state_from_objects() {
        let objects = vec![
            ObjectSpec {
                id: 0,
                name: "door-0".into(),
                attrs: vec![("x".into(), AttrValue::Int(0)), ("y".into(), AttrValue::Int(0))],
            },
            ObjectSpec {
                id: 1,
                name: "room".into(),
                attrs: vec![("temp".into(), AttrValue::Float(20.0))],
            },
        ];
        let s = WorldState::initial(&objects);
        assert_eq!(s.len(), 3);
        assert_eq!(s.get_int(AttrKey::new(0, 0)), 0);
        assert_eq!(s.get_float(AttrKey::new(1, 0)), 20.0);
        assert_eq!(objects[0].attr_id("y"), Some(1));
        assert_eq!(objects[1].attr_id("nope"), None);
    }

    #[test]
    fn set_and_get_roundtrip() {
        let mut s = WorldState::default();
        assert!(s.is_empty());
        let k = AttrKey::new(3, 1);
        assert_eq!(s.set(k, AttrValue::Int(7)), None);
        assert_eq!(s.set(k, AttrValue::Int(9)), Some(AttrValue::Int(7)));
        assert_eq!(s.get_int(k), 9);
        assert_eq!(s.get(AttrKey::new(9, 9)), None);
        assert_eq!(s.get_int(AttrKey::new(9, 9)), 0, "missing defaults to 0");
    }
}
