//! Domain names and labels (RFC 1035 §2.3.1, §3.1).
//!
//! A [`DnsName`] is an absolute name: an ordered list of [`Label`]s from the
//! leftmost (host) label to the label just below the root. The root itself is
//! the empty list. Names compare and hash **case-insensitively** (ASCII), as
//! required by RFC 1035 §2.3.3, while preserving the original spelling for
//! display.
//!
//! The delegation-graph analyses lean on the name arithmetic defined here:
//! [`DnsName::parent`], [`DnsName::ancestors`], [`DnsName::is_subdomain_of`],
//! and [`DnsName::tld`] (used to group Figure 3/4 by top-level domain).

use std::fmt;

/// Maximum bytes in a single label (RFC 1035 §2.3.4).
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum bytes in a wire-encoded name, including length octets and the
/// terminating root octet (RFC 1035 §2.3.4).
pub const MAX_NAME_LEN: usize = 255;

/// Errors arising when constructing names or labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameError {
    /// A label was empty (`foo..bar`) where not permitted.
    EmptyLabel,
    /// A label exceeded [`MAX_LABEL_LEN`] bytes.
    LabelTooLong(usize),
    /// The whole name would exceed [`MAX_NAME_LEN`] wire bytes.
    NameTooLong(usize),
    /// A label contained a byte we refuse to store (control chars, space,
    /// or an embedded dot).
    BadByte(u8),
}

impl fmt::Display for NameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NameError::EmptyLabel => write!(f, "empty label"),
            NameError::LabelTooLong(n) => write!(f, "label of {n} bytes exceeds 63"),
            NameError::NameTooLong(n) => write!(f, "name of {n} wire bytes exceeds 255"),
            NameError::BadByte(b) => write!(f, "byte {b:#04x} not allowed in a label"),
        }
    }
}

impl std::error::Error for NameError {}

/// Labels at most this long live inline in the [`Label`] struct rather
/// than on the heap. Hostname labels are overwhelmingly short, so this
/// keeps name construction — the hot inner loop of both world building
/// and zero-parse snapshot decoding — free of per-label allocations.
const INLINE_LABEL_LEN: usize = 23;

#[derive(Debug, Clone)]
enum LabelRepr {
    Inline {
        len: u8,
        buf: [u8; INLINE_LABEL_LEN],
    },
    Heap(Vec<u8>),
}

/// A single DNS label: 1–63 bytes, case preserved, case-insensitive identity.
///
/// Storage is small-string optimized: labels up to 23 bytes (the
/// overwhelming majority) are stored inline, longer ones on the heap.
/// The representation is private; identity, ordering, and hashing go
/// through [`Label::as_bytes`] and never observe it.
#[derive(Debug, Clone)]
pub struct Label {
    repr: LabelRepr,
}

impl Label {
    /// Creates a label from raw bytes, validating length and content.
    ///
    /// We accept printable ASCII except space and dot (the master-file and
    /// display syntax would be ambiguous otherwise); real-world hostnames are
    /// a subset of this.
    pub fn new(bytes: &[u8]) -> Result<Label, NameError> {
        Label::validate(bytes)?;
        Ok(Label::from_validated(bytes))
    }

    /// The exact acceptance check [`Label::new`] performs, without
    /// constructing the label — for validation walks (e.g. establishing
    /// snapshot record boundaries) that only need to know the bytes
    /// *would* decode.
    pub fn validate(bytes: &[u8]) -> Result<(), NameError> {
        if bytes.is_empty() {
            return Err(NameError::EmptyLabel);
        }
        if bytes.len() > MAX_LABEL_LEN {
            return Err(NameError::LabelTooLong(bytes.len()));
        }
        // Branch-free accept test (`0x21..=0x7E` minus the dot, as one
        // wrapping compare) so the scan vectorizes: this runs over every
        // label byte of a snapshot's name table on load.
        let ok = bytes.iter().fold(true, |ok, &b| {
            ok & (b.wrapping_sub(0x21) <= 0x5D) & (b != b'.')
        });
        if ok {
            return Ok(());
        }
        let &bad = bytes
            .iter()
            .find(|&&b| !(0x21..=0x7E).contains(&b) || b == b'.')
            .expect("a byte failed the accept test");
        Err(NameError::BadByte(bad))
    }

    /// Builds the storage for bytes that already passed validation.
    fn from_validated(bytes: &[u8]) -> Label {
        if bytes.len() <= INLINE_LABEL_LEN {
            let mut buf = [0u8; INLINE_LABEL_LEN];
            buf[..bytes.len()].copy_from_slice(bytes);
            Label {
                repr: LabelRepr::Inline {
                    len: bytes.len() as u8,
                    buf,
                },
            }
        } else {
            Label {
                repr: LabelRepr::Heap(bytes.to_vec()),
            }
        }
    }

    /// The label's bytes with original case.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.repr {
            LabelRepr::Inline { len, buf } => &buf[..usize::from(*len)],
            LabelRepr::Heap(bytes) => bytes,
        }
    }

    /// The label as text. Labels are validated printable ASCII
    /// ([`Label::validate`]), so this never fails.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(self.as_bytes()).expect("labels are validated printable ASCII")
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
    }

    /// Labels are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Returns the label lowercased (for canonical forms).
    pub fn to_lowercase(&self) -> Label {
        let mut lower = self.clone();
        lower.make_lowercase();
        lower
    }

    fn make_lowercase(&mut self) {
        match &mut self.repr {
            LabelRepr::Inline { len, buf } => buf[..usize::from(*len)].make_ascii_lowercase(),
            LabelRepr::Heap(bytes) => bytes.make_ascii_lowercase(),
        }
    }
}

impl Eq for Label {}

impl PartialEq for Label {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes().eq_ignore_ascii_case(other.as_bytes())
    }
}

impl std::hash::Hash for Label {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Lowercase into a stack buffer and feed the hasher one `write`
        // call instead of one per byte — name-keyed map lookups are the
        // hottest operation of the dependency-index build. Labels are
        // validated to at most 63 bytes ([`MAX_LABEL_LEN`]).
        let bytes = self.as_bytes();
        let mut lower = [0u8; MAX_LABEL_LEN];
        let len = bytes.len();
        for (dst, &b) in lower[..len].iter_mut().zip(bytes) {
            *dst = b.to_ascii_lowercase();
        }
        state.write(&lower[..len]);
    }
}

impl PartialOrd for Label {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Label {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let a = self.as_bytes().iter().map(|b| b.to_ascii_lowercase());
        let b = other.as_bytes().iter().map(|b| b.to_ascii_lowercase());
        a.cmp(b)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An absolute domain name; the root is the empty label sequence.
///
/// # Examples
///
/// ```
/// use perils_dns::DnsName;
/// let www: DnsName = "www.cs.cornell.edu".parse().unwrap();
/// let cornell: DnsName = "cornell.edu".parse().unwrap();
/// assert!(www.is_subdomain_of(&cornell));
/// assert_eq!(www.parent().unwrap().to_string(), "cs.cornell.edu");
/// assert_eq!(www.tld().unwrap().to_string(), "edu");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DnsName {
    /// Leftmost (deepest) label first; empty for the root.
    labels: Vec<Label>,
}

impl DnsName {
    /// The root name `.`.
    pub fn root() -> DnsName {
        DnsName { labels: Vec::new() }
    }

    /// Builds a name from labels (leftmost first), checking the total length.
    pub fn from_labels(labels: Vec<Label>) -> Result<DnsName, NameError> {
        let name = DnsName { labels };
        let wire = name.wire_len();
        if wire > MAX_NAME_LEN {
            return Err(NameError::NameTooLong(wire));
        }
        Ok(name)
    }

    /// Parses dotted text (`"www.example.com"`, with or without the trailing
    /// dot; `"."` or `""` is the root).
    pub fn from_ascii(text: &str) -> Result<DnsName, NameError> {
        let trimmed = text.strip_suffix('.').unwrap_or(text);
        if trimmed.is_empty() {
            return Ok(DnsName::root());
        }
        let mut labels = Vec::new();
        for part in trimmed.split('.') {
            labels.push(Label::new(part.as_bytes())?);
        }
        DnsName::from_labels(labels)
    }

    /// Number of labels (0 for the root).
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// True for the root name.
    pub fn is_root(&self) -> bool {
        self.labels.is_empty()
    }

    /// The labels, leftmost first.
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Wire-format length in bytes (length octets + label bytes + root octet).
    pub fn wire_len(&self) -> usize {
        1 + self.labels.iter().map(|l| l.len() + 1).sum::<usize>()
    }

    /// The name with its leftmost label removed; `None` for the root.
    pub fn parent(&self) -> Option<DnsName> {
        if self.labels.is_empty() {
            None
        } else {
            Some(DnsName {
                labels: self.labels[1..].to_vec(),
            })
        }
    }

    /// Prepends `label`, producing a child name.
    pub fn child(&self, label: Label) -> Result<DnsName, NameError> {
        let mut labels = Vec::with_capacity(self.labels.len() + 1);
        labels.push(label);
        labels.extend(self.labels.iter().cloned());
        DnsName::from_labels(labels)
    }

    /// Convenience: parses `label` text and prepends it.
    pub fn prepend(&self, label: &str) -> Result<DnsName, NameError> {
        self.child(Label::new(label.as_bytes())?)
    }

    /// Iterates over `self`, `self.parent()`, …, down to the root
    /// (the root itself included last).
    pub fn ancestors(&self) -> impl Iterator<Item = DnsName> + '_ {
        (0..=self.labels.len()).map(move |skip| DnsName {
            labels: self.labels[skip..].to_vec(),
        })
    }

    /// True if `self` is `other` or lies underneath it.
    ///
    /// Every name is a subdomain of the root.
    pub fn is_subdomain_of(&self, other: &DnsName) -> bool {
        if other.labels.len() > self.labels.len() {
            return false;
        }
        let offset = self.labels.len() - other.labels.len();
        self.labels[offset..] == other.labels[..]
    }

    /// True if `self` lies strictly underneath `other`.
    pub fn is_proper_subdomain_of(&self, other: &DnsName) -> bool {
        self.labels.len() > other.labels.len() && self.is_subdomain_of(other)
    }

    /// The top-level domain (rightmost label) as a single-label name, or
    /// `None` for the root.
    pub fn tld(&self) -> Option<DnsName> {
        self.labels.last().map(|l| DnsName {
            labels: vec![l.clone()],
        })
    }

    /// The last `n` labels as a name (e.g. `suffix(2)` of `www.cornell.edu`
    /// is `cornell.edu`). Returns the whole name if `n >= label_count`.
    pub fn suffix(&self, n: usize) -> DnsName {
        let skip = self.labels.len().saturating_sub(n);
        DnsName {
            labels: self.labels[skip..].to_vec(),
        }
    }

    /// Canonical all-lowercase form (used for map keys and wire
    /// compression).
    pub fn to_lowercase(&self) -> DnsName {
        DnsName {
            labels: self.labels.iter().map(Label::to_lowercase).collect(),
        }
    }

    /// [`DnsName::to_lowercase`] in place: keeps this name's storage.
    pub fn into_lowercase(mut self) -> DnsName {
        self.labels.iter_mut().for_each(Label::make_lowercase);
        self
    }
}

/// A [`DnsName`] can stand in for its label slice in hashed collections:
/// the derived `Hash`/`Eq`/`Ord` of `DnsName` delegate to its `Vec<Label>`
/// field, which hashes and compares exactly like `[Label]` (labels
/// themselves hash case-insensitively). This is what lets name-keyed maps
/// be probed with a **borrowed suffix** of another name's labels — an
/// ancestor walk without materializing one allocation per ancestor, the
/// hot lookup of the dependency-index build.
impl std::borrow::Borrow<[Label]> for DnsName {
    fn borrow(&self) -> &[Label] {
        &self.labels
    }
}

impl fmt::Display for DnsName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.labels.is_empty() {
            return write!(f, ".");
        }
        for (i, label) in self.labels.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{label}")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for DnsName {
    type Err = NameError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        DnsName::from_ascii(s)
    }
}

/// Shorthand used pervasively in tests and examples: parses a name,
/// panicking on invalid input.
///
/// # Panics
///
/// Panics if `text` is not a valid dotted name.
pub fn name(text: &str) -> DnsName {
    DnsName::from_ascii(text).unwrap_or_else(|e| panic!("invalid name {text:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for text in ["www.cs.cornell.edu", "a.b", "x", "xn--exmple-cua.com"] {
            assert_eq!(name(text).to_string(), text);
        }
        assert_eq!(
            DnsName::from_ascii("www.example.com.").unwrap().to_string(),
            "www.example.com"
        );
        assert_eq!(DnsName::root().to_string(), ".");
        assert_eq!(DnsName::from_ascii(".").unwrap(), DnsName::root());
        assert_eq!(DnsName::from_ascii("").unwrap(), DnsName::root());
    }

    #[test]
    fn rejects_bad_labels() {
        assert!(matches!(
            DnsName::from_ascii("a..b"),
            Err(NameError::EmptyLabel)
        ));
        assert!(matches!(
            DnsName::from_ascii(&format!("{}.com", "x".repeat(64))),
            Err(NameError::LabelTooLong(64))
        ));
        assert!(matches!(
            DnsName::from_ascii("bad label.com"),
            Err(NameError::BadByte(b' '))
        ));
        assert!(Label::new(b"ok-label_1").is_ok());
    }

    #[test]
    fn rejects_overlong_names() {
        let label = "a".repeat(63);
        let long = [label.as_str(); 5].join("."); // 5*64+1 = 321 wire bytes
        assert!(matches!(
            DnsName::from_ascii(&long),
            Err(NameError::NameTooLong(_))
        ));
    }

    #[test]
    fn case_insensitive_identity() {
        let a = name("WWW.Example.COM");
        let b = name("www.example.com");
        assert_eq!(a, b);
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(a.clone());
        assert!(set.contains(&b));
        assert_eq!(a.to_string(), "WWW.Example.COM", "display preserves case");
        assert_eq!(a.to_lowercase().to_string(), "www.example.com");
        assert_eq!(a.into_lowercase().to_string(), "www.example.com");
        let long = format!("{}.Example.COM", "Heap".repeat(10));
        assert_eq!(
            name(&long).into_lowercase().to_string(),
            long.to_lowercase()
        );
    }

    #[test]
    fn parent_and_ancestors() {
        let n = name("www.cs.cornell.edu");
        assert_eq!(n.parent().unwrap(), name("cs.cornell.edu"));
        let chain: Vec<String> = n.ancestors().map(|a| a.to_string()).collect();
        assert_eq!(
            chain,
            vec![
                "www.cs.cornell.edu",
                "cs.cornell.edu",
                "cornell.edu",
                "edu",
                "."
            ]
        );
        assert!(DnsName::root().parent().is_none());
        assert_eq!(DnsName::root().ancestors().count(), 1);
    }

    #[test]
    fn subdomain_relation() {
        let www = name("www.cs.cornell.edu");
        assert!(www.is_subdomain_of(&name("cs.cornell.edu")));
        assert!(www.is_subdomain_of(&name("edu")));
        assert!(www.is_subdomain_of(&DnsName::root()));
        assert!(www.is_subdomain_of(&www));
        assert!(!www.is_proper_subdomain_of(&www));
        assert!(!name("cs.rochester.edu").is_subdomain_of(&name("cornell.edu")));
        assert!(
            !name("badcornell.edu").is_subdomain_of(&name("cornell.edu")),
            "label boundary respected"
        );
    }

    #[test]
    fn tld_and_suffix() {
        let n = name("www.rkc.lviv.ua");
        assert_eq!(n.tld().unwrap(), name("ua"));
        assert_eq!(n.suffix(2), name("lviv.ua"));
        assert_eq!(n.suffix(99), n);
        assert!(DnsName::root().tld().is_none());
    }

    #[test]
    fn child_and_prepend() {
        let base = name("cornell.edu");
        assert_eq!(base.prepend("www").unwrap(), name("www.cornell.edu"));
        assert!(base.prepend("").is_err());
    }

    #[test]
    fn wire_len_matches_definition() {
        assert_eq!(DnsName::root().wire_len(), 1);
        assert_eq!(name("a.bc").wire_len(), 1 + 2 + 3);
    }

    #[test]
    fn ordering_is_case_insensitive() {
        let mut v = [name("B.com"), name("a.com")];
        v.sort();
        assert_eq!(v[0], name("a.com"));
    }
}
