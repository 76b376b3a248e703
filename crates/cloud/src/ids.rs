//! Typed identifiers for cloud resources.
//!
//! Using newtypes instead of raw strings prevents the classic bug of passing
//! an AMI id where an instance id is expected, and gives each id family its
//! AWS-style prefix (`i-`, `ami-`, `sg-`).

use std::fmt;
use std::sync::Arc;

use pod_sim::SimRng;

/// A name newtype over a shared string: a clone, and so a new version of
/// every resource record that holds one, bumps a reference count instead of
/// copying the bytes. `Debug`, `Display`, `Ord`, `Hash` and `Eq` are the
/// string's.
macro_rules! name_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(Arc<str>);

        impl $name {
            /// Wraps an existing id or name.
            pub fn new(id: impl AsRef<str>) -> Self {
                $name(Arc::from(id.as_ref()))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(&self.0)
            }
        }

        /// A span attribute shares the id's string.
        impl From<&$name> for pod_obs::AttrValue {
            fn from(id: &$name) -> pod_obs::AttrValue {
                pod_obs::AttrValue::Shared(Arc::clone(&id.0))
            }
        }
    };
}

/// A `name_type!` the cloud generates, with its AWS-style prefix.
macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:expr) => {
        name_type!($(#[$doc])* $name);

        impl $name {
            /// Generates a fresh random id with the family prefix.
            pub fn generate(rng: &mut SimRng) -> Self {
                let mut s = String::with_capacity($prefix.len() + 8);
                s.push_str($prefix);
                for _ in 0..8 {
                    let d = rng.uniform_u64(0, 16);
                    s.push(char::from_digit(d as u32, 16).expect("hex digit"));
                }
                $name(s.into())
            }

            /// The id as a string slice.
            pub fn as_str(&self) -> &str {
                &self.0
            }
        }

        impl From<&str> for $name {
            fn from(s: &str) -> Self {
                $name(s.into())
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
name_type!(
    /// A key-pair name (key pairs are addressed by name in AWS).
    KeyPairName
);
name_type!(
    /// A launch-configuration name.
    LaunchConfigName
);
name_type!(
    /// An auto-scaling-group name.
    AsgName
);
name_type!(
    /// An elastic-load-balancer name.
    ElbName
);

#[cfg(test)]
mod tests {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

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

    fn hash_of(value: &impl Hash) -> u64 {
        let mut h = DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn every_family_agrees_with_its_string_and_shares_it_when_cloned() {
        macro_rules! check {
            ($($name:ident),*) => {$(
                let (sa, sb) = ("i-0a", "i-0b");
                let (a, b) = ($name::new(sa), $name::new(sb));
                assert_eq!(a.cmp(&b), sa.cmp(sb));
                assert_eq!(b.cmp(&a), sb.cmp(sa));
                assert_eq!(a, $name::new(sa.to_string()));
                assert_ne!(a, b);
                assert_eq!(hash_of(&a), hash_of(&sa.to_string()));
                assert_eq!(a.to_string(), sa);
                assert_eq!(format!("{a:?}"), format!("{}({sa:?})", stringify!($name)));
                assert_eq!(a.clone().0.as_ptr(), a.0.as_ptr(), "a clone shares its bytes");
            )*};
        }
        check!(
            InstanceId,
            AmiId,
            SecurityGroupId,
            KeyPairName,
            LaunchConfigName,
            AsgName,
            ElbName
        );
        let mut rng = SimRng::seed_from(3);
        let i = InstanceId::generate(&mut rng);
        assert_eq!(i.clone().as_str().as_ptr(), i.as_str().as_ptr());
        let ami = AmiId::generate(&mut rng);
        assert_eq!(ami.clone().as_str().as_ptr(), ami.as_str().as_ptr());
        let sg = SecurityGroupId::from("sg-1");
        assert_eq!(sg.clone().as_str().as_ptr(), sg.as_str().as_ptr());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut r1 = SimRng::seed_from(9);
        let mut r2 = SimRng::seed_from(9);
        assert_eq!(InstanceId::generate(&mut r1), InstanceId::generate(&mut r2));
    }
}
