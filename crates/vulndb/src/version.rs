//! BIND version strings as they appear in `version.bind` banners.
//!
//! Versions of that era look like `4.9.11`, `8.2.4`, `8.2.2-P7`,
//! `9.2.3`, sometimes with suffixes like `-REL` or vendor decorations.
//! Ordering is by numeric components, then patch level; `8.2.2-P5 <
//! 8.2.2-P7 < 8.2.3`.

use std::cmp::Ordering;
use std::fmt;

/// A parsed BIND version.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BindVersion {
    /// Major version (4, 8 or 9 in the wild).
    pub major: u32,
    /// Minor version.
    pub minor: u32,
    /// Patch version (0 when absent, e.g. `9.2`).
    pub patch: u32,
    /// `-P<n>` patch level, when present.
    pub patchlevel: Option<u32>,
}

impl BindVersion {
    /// Constructs a version from components.
    pub fn new(major: u32, minor: u32, patch: u32) -> BindVersion {
        BindVersion {
            major,
            minor,
            patch,
            patchlevel: None,
        }
    }

    /// Parses a version out of a banner fragment.
    ///
    /// Accepts `"8.2.4"`, `"BIND 8.2.4"`, `"9.2.3-P1"`, `"8.4.7-REL"`,
    /// `"9.2"`; returns `None` for hidden or non-numeric banners
    /// (`"surely you must be joking"`, `"unknown"`, …).
    pub fn parse(text: &str) -> Option<BindVersion> {
        // Find the first token that starts with a digit.
        let token = text
            .split(|c: char| c.is_whitespace() || c == '"')
            .find(|t| t.chars().next().is_some_and(|c| c.is_ascii_digit()))?;
        let mut numeric_end = token.len();
        // Split off a suffix beginning at the first '-' (e.g. -P1, -REL).
        let (core, suffix) = match token.find('-') {
            Some(i) => {
                numeric_end = i;
                (&token[..i], Some(&token[i + 1..]))
            }
            None => (token, None),
        };
        let _ = numeric_end;
        let mut parts = core.split('.');
        let major: u32 = parts.next()?.parse().ok()?;
        let minor: u32 = parts.next().and_then(|p| p.parse().ok()).unwrap_or(0);
        let patch: u32 = parts.next().and_then(|p| p.parse().ok()).unwrap_or(0);
        // Sanity: BIND majors of the era are single/double digit.
        if major == 0 || major > 99 {
            return None;
        }
        let patchlevel = suffix.and_then(|s| {
            let s = s.strip_prefix('P').or_else(|| s.strip_prefix('p'))?;
            s.parse().ok()
        });
        Some(BindVersion {
            major,
            minor,
            patch,
            patchlevel,
        })
    }

    /// Ordered component tuple used by `Ord`.
    fn key(&self) -> (u32, u32, u32, u32) {
        (
            self.major,
            self.minor,
            self.patch,
            self.patchlevel.unwrap_or(0),
        )
    }
}

impl PartialOrd for BindVersion {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BindVersion {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

impl fmt::Display for BindVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}", self.major, self.minor, self.patch)?;
        if let Some(pl) = self.patchlevel {
            write!(f, "-P{pl}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_versions() {
        assert_eq!(BindVersion::parse("8.2.4"), Some(BindVersion::new(8, 2, 4)));
        assert_eq!(BindVersion::parse("9.2"), Some(BindVersion::new(9, 2, 0)));
        assert_eq!(
            BindVersion::parse("4.9.11"),
            Some(BindVersion::new(4, 9, 11))
        );
    }

    #[test]
    fn parses_banner_decorations() {
        assert_eq!(
            BindVersion::parse("BIND 8.2.4"),
            Some(BindVersion::new(8, 2, 4))
        );
        assert_eq!(
            BindVersion::parse("named 9.2.3-P1"),
            Some(BindVersion {
                patchlevel: Some(1),
                ..BindVersion::new(9, 2, 3)
            })
        );
        assert_eq!(
            BindVersion::parse("\"8.4.7-REL\""),
            Some(BindVersion::new(8, 4, 7))
        );
        assert_eq!(
            BindVersion::parse("8.2.2-P7"),
            Some(BindVersion {
                patchlevel: Some(7),
                ..BindVersion::new(8, 2, 2)
            })
        );
    }

    #[test]
    fn rejects_hidden_banners() {
        for banner in [
            "surely you must be joking",
            "unknown",
            "",
            "secret",
            "none of your business",
        ] {
            assert_eq!(BindVersion::parse(banner), None, "{banner:?}");
        }
    }

    #[test]
    fn ordering() {
        let mut versions = [
            BindVersion::parse("9.2.3").unwrap(),
            BindVersion::parse("8.2.2-P5").unwrap(),
            BindVersion::parse("8.2.4").unwrap(),
            BindVersion::parse("8.2.2-P7").unwrap(),
            BindVersion::parse("8.2.3").unwrap(),
            BindVersion::parse("4.9.11").unwrap(),
        ];
        versions.sort();
        let rendered: Vec<String> = versions.iter().map(|v| v.to_string()).collect();
        assert_eq!(
            rendered,
            vec!["4.9.11", "8.2.2-P5", "8.2.2-P7", "8.2.3", "8.2.4", "9.2.3"]
        );
    }

    #[test]
    fn display_round_trips() {
        for text in ["8.2.4", "9.2.3-P1", "4.9.11"] {
            let v = BindVersion::parse(text).unwrap();
            assert_eq!(v.to_string(), text);
            assert_eq!(BindVersion::parse(&v.to_string()), Some(v));
        }
    }
}
