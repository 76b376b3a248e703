//! Variable masking and template derivation.
//!
//! Log lines contain volatile substrings — instance ids, AMI ids, numbers,
//! timestamps — that must be abstracted before clustering and before regular
//! expressions can be derived. A [`Template`] captures the constant skeleton
//! of a cluster of lines plus typed wildcards for the volatile positions.

/// The recognised classes of volatile tokens, in masking priority order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VariableKind {
    /// A timestamp like `2013-10-24` or `11:41:48,312`.
    Timestamp,
    /// An EC2 instance id (`i-…`).
    InstanceId,
    /// An AMI id (`ami-…`).
    AmiId,
    /// A security-group id (`sg-…`).
    SecurityGroupId,
    /// A launch-configuration name (`lc-…`).
    LaunchConfigName,
    /// A bare number.
    Number,
    /// Anything else that varies.
    Other,
}

impl VariableKind {
    /// The mask token used during clustering.
    pub fn mask(self) -> &'static str {
        match self {
            VariableKind::Timestamp => "<ts>",
            VariableKind::InstanceId => "<instance>",
            VariableKind::AmiId => "<ami>",
            VariableKind::SecurityGroupId => "<sg>",
            VariableKind::LaunchConfigName => "<lc>",
            VariableKind::Number => "<num>",
            VariableKind::Other => "<*>",
        }
    }

    /// The regex fragment this variable matches, with a named capture where
    /// the id is useful downstream.
    pub fn pattern(self) -> &'static str {
        match self {
            VariableKind::Timestamp => r"[\d:,.-]+",
            VariableKind::InstanceId => r"(?P<instanceid>i-[0-9a-f]+)",
            VariableKind::AmiId => r"(?P<amiid>ami-[0-9a-f]+)",
            VariableKind::SecurityGroupId => r"(?P<sgid>sg-[0-9a-f]+)",
            VariableKind::LaunchConfigName => r"(?P<lc>lc-[\w.-]+)",
            VariableKind::Number => r"\d+",
            VariableKind::Other => r"\S+",
        }
    }

    /// Classifies a single token.
    pub fn classify(token: &str) -> Option<VariableKind> {
        fn hex_suffix(token: &str, prefix: &str) -> bool {
            token
                .strip_prefix(prefix)
                .is_some_and(|rest| !rest.is_empty() && rest.chars().all(|c| c.is_ascii_hexdigit()))
        }
        let bare = token.trim_matches(|c: char| ",.;:()[]".contains(c));
        if bare.is_empty() {
            return None;
        }
        if hex_suffix(bare, "i-") {
            Some(VariableKind::InstanceId)
        } else if hex_suffix(bare, "ami-") {
            Some(VariableKind::AmiId)
        } else if hex_suffix(bare, "sg-") {
            Some(VariableKind::SecurityGroupId)
        } else if bare.starts_with("lc-") && bare.len() > 3 {
            Some(VariableKind::LaunchConfigName)
        } else if bare.chars().all(|c| c.is_ascii_digit()) {
            Some(VariableKind::Number)
        } else if bare.len() >= 8
            && bare
                .chars()
                .all(|c| c.is_ascii_digit() || ":-,.".contains(c))
        {
            Some(VariableKind::Timestamp)
        } else {
            None
        }
    }
}

/// Replaces volatile tokens with their masks, producing the string used for
/// clustering.
///
/// # Examples
///
/// ```
/// use pod_mining::mask_line;
///
/// assert_eq!(
///     mask_line("Terminated instance i-7df34041 after 42 s"),
///     "Terminated instance <instance> after <num> s"
/// );
/// ```
pub fn mask_line(line: &str) -> String {
    line.split_whitespace()
        .map(|t| match VariableKind::classify(t) {
            Some(kind) => kind.mask().to_string(),
            None => t.to_string(),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// One position of a template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TemplateToken {
    /// A constant token.
    Literal(String),
    /// A volatile token of a known class.
    Variable(VariableKind),
}

/// The constant skeleton of a cluster of log lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Template {
    tokens: Vec<TemplateToken>,
}

impl Template {
    /// Derives a template from a non-empty cluster of raw lines.
    ///
    /// Lines are tokenised by whitespace; positions that are identical in
    /// every line stay literal, positions that vary (or that look like ids /
    /// numbers in any line) become typed variables. Lines whose token count
    /// differs from the cluster majority are ignored for position analysis.
    pub fn derive(lines: &[&str]) -> Template {
        assert!(!lines.is_empty(), "cannot derive a template from no lines");
        let tokenised: Vec<Vec<&str>> = lines
            .iter()
            .map(|l| l.split_whitespace().collect())
            .collect();
        // Majority token count.
        let mut counts: Vec<(usize, usize)> = Vec::new();
        for t in &tokenised {
            match counts.iter_mut().find(|(len, _)| *len == t.len()) {
                Some((_, c)) => *c += 1,
                None => counts.push((t.len(), 1)),
            }
        }
        counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let majority_len = counts[0].0;
        let aligned: Vec<&Vec<&str>> = tokenised
            .iter()
            .filter(|t| t.len() == majority_len)
            .collect();
        let mut tokens = Vec::with_capacity(majority_len);
        for pos in 0..majority_len {
            let first = aligned[0][pos];
            let constant = aligned.iter().all(|l| l[pos] == first);
            let classified = VariableKind::classify(first);
            match (constant, classified) {
                (true, None) => tokens.push(TemplateToken::Literal(first.to_string())),
                (true, Some(kind)) | (false, Some(kind)) => {
                    tokens.push(TemplateToken::Variable(kind))
                }
                (false, None) => tokens.push(TemplateToken::Variable(VariableKind::Other)),
            }
        }
        Template { tokens }
    }

    /// A human-readable activity name: the first few literal words,
    /// lowercased and hyphenated — standing in for the paper's manual
    /// cluster naming by the analyst.
    pub fn activity_name(&self) -> String {
        let words: Vec<String> = self
            .tokens
            .iter()
            .filter_map(|t| match t {
                TemplateToken::Literal(w) => {
                    let w: String = w
                        .chars()
                        .filter(|c| c.is_ascii_alphanumeric())
                        .collect::<String>()
                        .to_lowercase();
                    if w.is_empty() {
                        None
                    } else {
                        Some(w)
                    }
                }
                TemplateToken::Variable(_) => None,
            })
            .take(5)
            .collect();
        if words.is_empty() {
            "unnamed".to_string()
        } else {
            words.join("-")
        }
    }

    /// The regular expression (as a pattern string) matching lines of this
    /// template, with named captures for typed variables.
    pub fn to_pattern(&self) -> String {
        let mut parts = Vec::with_capacity(self.tokens.len());
        for t in &self.tokens {
            match t {
                TemplateToken::Literal(w) => parts.push(escape_literal(w)),
                TemplateToken::Variable(kind) => parts.push(kind.pattern().to_string()),
            }
        }
        parts.join(r"\s+")
    }
}

fn escape_literal(lit: &str) -> String {
    let mut out = String::with_capacity(lit.len());
    for c in lit.chars() {
        if "\\.+*?()|[]{}^$".contains(c) {
            out.push('\\');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pod_regex::Regex;

    #[test]
    fn classify_recognises_id_families() {
        assert_eq!(
            VariableKind::classify("i-7df34041"),
            Some(VariableKind::InstanceId)
        );
        assert_eq!(
            VariableKind::classify("ami-750c9e4f"),
            Some(VariableKind::AmiId)
        );
        assert_eq!(
            VariableKind::classify("sg-abc123"),
            Some(VariableKind::SecurityGroupId)
        );
        assert_eq!(
            VariableKind::classify("lc-v2"),
            Some(VariableKind::LaunchConfigName)
        );
        assert_eq!(VariableKind::classify("42"), Some(VariableKind::Number));
        assert_eq!(
            VariableKind::classify("11:41:48,312"),
            Some(VariableKind::Timestamp)
        );
        assert_eq!(VariableKind::classify("instance"), None);
        // Punctuation-wrapped ids still classify.
        assert_eq!(
            VariableKind::classify("i-7df34041."),
            Some(VariableKind::InstanceId)
        );
    }

    #[test]
    fn masking_preserves_structure() {
        assert_eq!(
            mask_line("Pushing ami-750c9e4f into group pm--asg for app pm"),
            "Pushing <ami> into group pm--asg for app pm"
        );
    }

    #[test]
    fn template_from_uniform_cluster() {
        let lines = [
            "Terminated instance i-1a2b3c4d",
            "Terminated instance i-99887766",
            "Terminated instance i-deadbeef",
        ];
        let t = Template::derive(&lines);
        assert_eq!(t.activity_name(), "terminated-instance");
        let re = Regex::new(&t.to_pattern()).unwrap();
        let caps = re.captures("Terminated instance i-0f0f0f0f").unwrap();
        assert_eq!(caps.name("instanceid"), Some("i-0f0f0f0f"));
        assert!(!re.is_match("Launched instance i-0f0f0f0f"));
    }

    #[test]
    fn varying_word_becomes_wildcard() {
        let lines = ["state went up", "state went down"];
        let t = Template::derive(&lines);
        let re = Regex::new(&t.to_pattern()).unwrap();
        assert!(re.is_match("state went sideways"));
        assert!(!re.is_match("mood went sideways"));
    }

    #[test]
    fn minority_length_lines_are_ignored() {
        let lines = [
            "Launched instance i-1 ok",
            "Launched instance i-2 ok",
            "Launched instance i-3 ok extra-token",
        ];
        let t = Template::derive(&lines);
        assert_eq!(t.tokens.len(), 4);
    }

    #[test]
    fn name_falls_back_when_no_literals() {
        let lines = ["42 i-aa", "17 i-bb"];
        let t = Template::derive(&lines);
        assert_eq!(t.activity_name(), "unnamed");
    }

    #[test]
    fn single_line_cluster_works() {
        let t = Template::derive(&["Sorting 4 instances by launch time"]);
        assert_eq!(t.activity_name(), "sorting-instances-by-launch-time");
        assert!(Regex::new(&t.to_pattern())
            .unwrap()
            .is_match("Sorting 20 instances by launch time"));
    }
}
