//! Typed identifiers for cloud resources.
//!
//! Using newtypes instead of raw strings prevents the classic bug of passing
//! an AMI id where an instance id is expected, and gives each id family its
//! AWS-style prefix (`i-`, `ami-`, `sg-`).

use std::fmt;

use pod_sim::SimRng;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(String);

        impl $name {
            /// Wraps an existing id string.
            pub fn new(id: impl Into<String>) -> Self {
                $name(id.into())
            }

            /// Generates a fresh random id with the family prefix.
            pub fn generate(rng: &mut SimRng) -> Self {
                let mut s = String::from($prefix);
                for _ in 0..8 {
                    let d = rng.uniform_u64(0, 16);
                    s.push(char::from_digit(d as u32, 16).expect("hex digit"));
                }
                $name(s)
            }

            /// The id as a string slice.
            pub fn as_str(&self) -> &str {
                &self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0)
            }
        }

        impl From<&str> for $name {
            fn from(s: &str) -> Self {
                $name(s.to_string())
            }
        }
    };
}

id_type!(
    /// An EC2 instance id (`i-…`).
    InstanceId,
    "i-"
);
id_type!(
    /// A machine-image id (`ami-…`).
    AmiId,
    "ami-"
);
id_type!(
    /// A security-group id (`sg-…`).
    SecurityGroupId,
    "sg-"
);

/// A key-pair name (key pairs are addressed by name in AWS).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeyPairName(String);

impl KeyPairName {
    /// Wraps a name.
    pub fn new(name: impl Into<String>) -> Self {
        KeyPairName(name.into())
    }
}

impl fmt::Display for KeyPairName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A launch-configuration name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LaunchConfigName(String);

impl LaunchConfigName {
    /// Wraps a name.
    pub fn new(name: impl Into<String>) -> Self {
        LaunchConfigName(name.into())
    }
}

impl fmt::Display for LaunchConfigName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// An auto-scaling-group name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AsgName(String);

impl AsgName {
    /// Wraps a name.
    pub fn new(name: impl Into<String>) -> Self {
        AsgName(name.into())
    }
}

impl fmt::Display for AsgName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// An elastic-load-balancer name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ElbName(String);

impl ElbName {
    /// Wraps a name.
    pub fn new(name: impl Into<String>) -> Self {
        ElbName(name.into())
    }
}

impl fmt::Display for ElbName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_ids_have_prefix_and_are_unique() {
        let mut rng = SimRng::seed_from(1);
        let a = InstanceId::generate(&mut rng);
        let b = InstanceId::generate(&mut rng);
        assert!(a.as_str().starts_with("i-"));
        assert_ne!(a, b);
        assert!(AmiId::generate(&mut rng).as_str().starts_with("ami-"));
        assert!(SecurityGroupId::generate(&mut rng)
            .as_str()
            .starts_with("sg-"));
    }

    #[test]
    fn ids_display_as_their_string() {
        let id = InstanceId::new("i-7df34041");
        assert_eq!(id.to_string(), "i-7df34041");
        assert_eq!(AsgName::new("pm--asg").to_string(), "pm--asg");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut r1 = SimRng::seed_from(9);
        let mut r2 = SimRng::seed_from(9);
        assert_eq!(InstanceId::generate(&mut r1), InstanceId::generate(&mut r2));
    }
}
