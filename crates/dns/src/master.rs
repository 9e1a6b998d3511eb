//! RFC 1035 §5 master-file (zone file) reading.
//!
//! Supports the constructs real zone files of the BIND era used:
//! `$ORIGIN`, `$TTL`, `@` for the origin, relative names, omitted
//! owner/TTL/class fields (inherited from the previous record), comments
//! (`;`), quoted TXT strings, and parenthesized multi-line SOA records.
//!
//! A zone file enters through one reader, [`ZoneFileEvents`], which
//! streams it record by record as [`ZoneEvent`]s.

use crate::name::{DnsName, NameError};
use crate::rr::{RData, Record, RrClass, Soa};
use crate::zone::ZoneEvent;
use std::fmt;
use std::str::FromStr;

/// Errors produced by the master-file parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MasterError {
    /// A line could not be tokenized (unbalanced quotes/parentheses).
    Syntax {
        /// 1-based line number.
        line: usize,
        /// Description.
        message: String,
    },
    /// A name failed to parse.
    Name {
        /// 1-based line number.
        line: usize,
        /// Underlying error.
        source: NameError,
    },
    /// Reading from the underlying source failed (reader-backed
    /// [`ZoneFileEvents`] streams only).
    Io {
        /// 1-based line number of the read position.
        line: usize,
        /// The IO error, rendered.
        message: String,
    },
}

impl fmt::Display for MasterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MasterError::Syntax { line, message } => write!(f, "line {line}: {message}"),
            MasterError::Name { line, source } => write!(f, "line {line}: bad name: {source}"),
            MasterError::Io { line, message } => write!(f, "line {line}: read failed: {message}"),
        }
    }
}

impl std::error::Error for MasterError {}

/// A token with quoting information (TXT strings keep spaces).
#[derive(Debug, Clone, PartialEq)]
struct Token {
    text: String,
    quoted: bool,
}

/// A tokenized logical line: starting line number, tokens, and whether
/// the first physical line began with whitespace (owner inheritance).
type LogicalLine = (usize, Vec<Token>, bool);

/// Incremental tokenizer: raw lines go in one at a time, logical lines
/// (with parenthesized continuations joined and comments stripped) come
/// out as soon as they complete. State is one partial logical line, so
/// memory is bounded by the longest *record*, not the file — this is
/// what lets [`ZoneFileEvents`] stream files larger than memory.
#[derive(Debug, Default)]
struct LineTokenizer {
    current: Vec<Token>,
    paren_depth: usize,
    start_line: usize,
    leading_ws: bool,
}

impl LineTokenizer {
    /// Tokenizes one raw line; yields the completed logical line when
    /// the parenthesis depth returns to zero.
    fn push_line(
        &mut self,
        line_no: usize,
        raw_line: &str,
    ) -> Result<Option<LogicalLine>, MasterError> {
        if self.paren_depth == 0 {
            self.start_line = line_no;
            self.leading_ws = raw_line.starts_with(' ') || raw_line.starts_with('\t');
        }
        let mut chars = raw_line.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                ';' => break, // comment
                '(' => self.paren_depth += 1,
                ')' => {
                    self.paren_depth =
                        self.paren_depth
                            .checked_sub(1)
                            .ok_or_else(|| MasterError::Syntax {
                                line: line_no,
                                message: "unbalanced ')'".to_string(),
                            })?;
                }
                '"' => {
                    let mut s = String::new();
                    let mut closed = false;
                    while let Some(c) = chars.next() {
                        match c {
                            '\\' => {
                                if let Some(escaped) = chars.next() {
                                    s.push(escaped);
                                }
                            }
                            '"' => {
                                closed = true;
                                break;
                            }
                            other => s.push(other),
                        }
                    }
                    if !closed {
                        return Err(MasterError::Syntax {
                            line: line_no,
                            message: "unterminated string".to_string(),
                        });
                    }
                    self.current.push(Token {
                        text: s,
                        quoted: true,
                    });
                }
                c if c.is_whitespace() => {}
                other => {
                    let mut s = String::new();
                    s.push(other);
                    while let Some(&next) = chars.peek() {
                        if next.is_whitespace() || next == ';' || next == '(' || next == ')' {
                            break;
                        }
                        s.push(chars.next().expect("peeked"));
                    }
                    self.current.push(Token {
                        text: s,
                        quoted: false,
                    });
                }
            }
        }
        if self.paren_depth == 0 && !self.current.is_empty() {
            return Ok(Some((
                self.start_line,
                std::mem::take(&mut self.current),
                self.leading_ws,
            )));
        }
        Ok(None)
    }

    /// Flushes at end of input; errors on an unbalanced `(`.
    fn finish(&mut self) -> Result<Option<LogicalLine>, MasterError> {
        if self.paren_depth != 0 {
            return Err(MasterError::Syntax {
                line: self.start_line,
                message: "unbalanced '(' at end of file".to_string(),
            });
        }
        if self.current.is_empty() {
            Ok(None)
        } else {
            Ok(Some((
                self.start_line,
                std::mem::take(&mut self.current),
                self.leading_ws,
            )))
        }
    }
}

fn parse_name(text: &str, origin: &DnsName, line: usize) -> Result<DnsName, MasterError> {
    let to_err = |source| MasterError::Name { line, source };
    if text == "@" {
        return Ok(origin.clone());
    }
    if let Some(absolute) = text.strip_suffix('.') {
        return DnsName::from_ascii(absolute).map_err(to_err);
    }
    // Relative: append the origin.
    let rel = DnsName::from_ascii(text).map_err(to_err)?;
    let mut labels = rel.labels().to_vec();
    labels.extend(origin.labels().iter().cloned());
    DnsName::from_labels(labels).map_err(to_err)
}

/// Parses a numeric field at the width of its type, so a value out of
/// that range is an error naming the field, not a silent wrap.
fn parse_number<T: FromStr>(text: &str, line: usize, what: &str) -> Result<T, MasterError> {
    text.parse::<T>().map_err(|_| MasterError::Syntax {
        line,
        message: format!("expected {what}, found {text:?}"),
    })
}

/// Incremental state for parsing one master file record-by-record: the
/// current `$ORIGIN`, `$TTL` and previous-owner context that later lines
/// inherit.
#[derive(Debug, Clone)]
struct LineParser {
    origin: DnsName,
    default_ttl: u32,
    previous_owner: Option<DnsName>,
}

impl LineParser {
    fn new(default_origin: &DnsName) -> LineParser {
        LineParser {
            origin: default_origin.clone(),
            default_ttl: 3600,
            previous_owner: None,
        }
    }

    /// Parses one logical line. Directives (`$ORIGIN`, `$TTL`) update the
    /// parser state and yield `None`; record lines yield the record.
    fn parse(
        &mut self,
        line: usize,
        tokens: &[Token],
        leading_ws: bool,
    ) -> Result<Option<Record>, MasterError> {
        let first = &tokens[0];
        if !first.quoted && first.text.eq_ignore_ascii_case("$ORIGIN") {
            let target = tokens.get(1).ok_or_else(|| MasterError::Syntax {
                line,
                message: "$ORIGIN needs an argument".into(),
            })?;
            self.origin = parse_name(&target.text, &self.origin, line)?;
            return Ok(None);
        }
        if !first.quoted && first.text.eq_ignore_ascii_case("$TTL") {
            let target = tokens.get(1).ok_or_else(|| MasterError::Syntax {
                line,
                message: "$TTL needs an argument".into(),
            })?;
            self.default_ttl = parse_number(&target.text, line, "TTL")?;
            return Ok(None);
        }

        let origin = &self.origin;
        let mut cursor = 0usize;
        let owner = if leading_ws {
            self.previous_owner
                .clone()
                .ok_or_else(|| MasterError::Syntax {
                    line,
                    message: "record with blank owner but no previous owner".into(),
                })?
        } else {
            let owner = parse_name(&tokens[0].text, origin, line)?;
            cursor = 1;
            owner
        };
        self.previous_owner = Some(owner.clone());

        // Optional TTL and class, in either order.
        let mut ttl = self.default_ttl;
        let mut class = RrClass::In;
        loop {
            let token = tokens.get(cursor).ok_or_else(|| MasterError::Syntax {
                line,
                message: "record missing type".into(),
            })?;
            if token.quoted {
                return Err(MasterError::Syntax {
                    line,
                    message: "unexpected string".into(),
                });
            }
            let upper = token.text.to_ascii_uppercase();
            if let Ok(v) = token.text.parse::<u32>() {
                ttl = v;
                cursor += 1;
                continue;
            }
            if upper == "IN" {
                class = RrClass::In;
                cursor += 1;
                continue;
            }
            if upper == "CH" {
                class = RrClass::Ch;
                cursor += 1;
                continue;
            }
            break;
        }

        let type_token = tokens.get(cursor).ok_or_else(|| MasterError::Syntax {
            line,
            message: "record missing type".into(),
        })?;
        cursor += 1;
        let rest = &tokens[cursor..];
        let upper = type_token.text.to_ascii_uppercase();
        let need = |n: usize| -> Result<(), MasterError> {
            if rest.len() < n {
                Err(MasterError::Syntax {
                    line,
                    message: format!("{upper} needs {n} field(s), found {}", rest.len()),
                })
            } else {
                Ok(())
            }
        };
        let rdata = match upper.as_str() {
            "A" => {
                need(1)?;
                let ip = rest[0].text.parse().map_err(|_| MasterError::Syntax {
                    line,
                    message: format!("bad IPv4 address {:?}", rest[0].text),
                })?;
                RData::A(ip)
            }
            "AAAA" => {
                need(1)?;
                let ip = rest[0].text.parse().map_err(|_| MasterError::Syntax {
                    line,
                    message: format!("bad IPv6 address {:?}", rest[0].text),
                })?;
                RData::Aaaa(ip)
            }
            "NS" => {
                need(1)?;
                RData::Ns(parse_name(&rest[0].text, origin, line)?)
            }
            "CNAME" => {
                need(1)?;
                RData::Cname(parse_name(&rest[0].text, origin, line)?)
            }
            "PTR" => {
                need(1)?;
                RData::Ptr(parse_name(&rest[0].text, origin, line)?)
            }
            "MX" => {
                need(2)?;
                RData::Mx {
                    preference: parse_number(&rest[0].text, line, "MX preference")?,
                    exchange: parse_name(&rest[1].text, origin, line)?,
                }
            }
            "TXT" => {
                need(1)?;
                RData::Txt(rest.iter().map(|t| t.text.clone()).collect())
            }
            "SRV" => {
                need(4)?;
                RData::Srv {
                    priority: parse_number(&rest[0].text, line, "SRV priority")?,
                    weight: parse_number(&rest[1].text, line, "SRV weight")?,
                    port: parse_number(&rest[2].text, line, "SRV port")?,
                    target: parse_name(&rest[3].text, origin, line)?,
                }
            }
            "SOA" => {
                need(7)?;
                RData::Soa(Soa {
                    mname: parse_name(&rest[0].text, origin, line)?,
                    rname: parse_name(&rest[1].text, origin, line)?,
                    serial: parse_number(&rest[2].text, line, "serial")?,
                    refresh: parse_number(&rest[3].text, line, "refresh")?,
                    retry: parse_number(&rest[4].text, line, "retry")?,
                    expire: parse_number(&rest[5].text, line, "expire")?,
                    minimum: parse_number(&rest[6].text, line, "minimum")?,
                })
            }
            other => {
                return Err(MasterError::Syntax {
                    line,
                    message: format!("unsupported record type {other:?}"),
                })
            }
        };
        Ok(Some(Record {
            name: owner,
            class,
            ttl,
            rdata,
        }))
    }
}

/// Where a [`ZoneFileEvents`] stream pulls its raw lines from: borrowed
/// text, or any [`std::io::BufRead`] for files larger than memory.
enum LineSource<'a> {
    Str(std::str::Lines<'a>),
    Reader(Box<dyn std::io::BufRead + 'a>),
}

impl LineSource<'_> {
    fn next_line(&mut self) -> Option<Result<String, std::io::Error>> {
        match self {
            LineSource::Str(lines) => lines.next().map(|s| Ok(s.to_string())),
            LineSource::Reader(reader) => {
                let mut buf = String::new();
                match reader.read_line(&mut buf) {
                    Ok(0) => None,
                    Ok(_) => {
                        while buf.ends_with('\n') || buf.ends_with('\r') {
                            buf.pop();
                        }
                        Some(Ok(buf))
                    }
                    Err(e) => Some(Err(e)),
                }
            }
        }
    }
}

/// A zone-file-backed [`ZoneEvent`] iterator: reads master-file text
/// record by record and yields the delegation-relevant observations —
/// every NS record as a (single-server) [`ZoneEvent::Cut`], every A
/// record as [`ZoneEvent::Glue`] — without ever materializing a zone
/// (no owner/type maps, no cut index, no SOA requirement).
///
/// This is the ingestion end of the streaming pipeline, and it is
/// **incremental all the way down**: lines are pulled one at a time from
/// the source (borrowed text via [`ZoneFileEvents::new`], or any
/// [`std::io::BufRead`] via [`ZoneFileEvents::from_reader`]), tokenized
/// by a stateful line tokenizer whose buffer holds at most one
/// partial record, and parsed in place — so a reader-backed feed larger
/// than memory streams with memory bounded by its longest record.
/// Consumers such as `perils_core`'s incremental universe builder merge
/// the per-record NS fragments into full NS sets. Errors (syntax,
/// record-level, IO) are yielded in stream order and end the stream.
/// AAAA records are skipped (the simulated internet is IPv4-only), as
/// are SOA/CNAME/MX/TXT/SRV/PTR records, which carry no delegation
/// structure.
pub struct ZoneFileEvents<'a> {
    lines: LineSource<'a>,
    line_no: usize,
    tokenizer: LineTokenizer,
    parser: LineParser,
    input_done: bool,
    finished: bool,
}

impl<'a> ZoneFileEvents<'a> {
    /// Streams borrowed master-file text, resolving relative names
    /// against `default_origin` until a `$ORIGIN` directive switches
    /// the context.
    pub fn new(content: &'a str, default_origin: &DnsName) -> ZoneFileEvents<'a> {
        ZoneFileEvents::with_source(LineSource::Str(content.lines()), default_origin)
    }

    /// Streams from any buffered reader — the bounded-memory path for
    /// zone files that do not fit in memory. IO failures surface as
    /// [`MasterError::Io`] items.
    pub fn from_reader(
        reader: impl std::io::BufRead + 'a,
        default_origin: &DnsName,
    ) -> ZoneFileEvents<'a> {
        ZoneFileEvents::with_source(LineSource::Reader(Box::new(reader)), default_origin)
    }

    fn with_source(lines: LineSource<'a>, default_origin: &DnsName) -> ZoneFileEvents<'a> {
        ZoneFileEvents {
            lines,
            line_no: 0,
            tokenizer: LineTokenizer::default(),
            parser: LineParser::new(default_origin),
            input_done: false,
            finished: false,
        }
    }

    /// Pulls raw lines until a logical line completes (or input ends).
    fn next_logical(&mut self) -> Result<Option<LogicalLine>, MasterError> {
        loop {
            if self.input_done {
                return Ok(None);
            }
            match self.lines.next_line() {
                None => {
                    self.input_done = true;
                    return self.tokenizer.finish();
                }
                Some(Err(e)) => {
                    self.input_done = true;
                    return Err(MasterError::Io {
                        line: self.line_no + 1,
                        message: e.to_string(),
                    });
                }
                Some(Ok(raw)) => {
                    self.line_no += 1;
                    if let Some(logical) = self.tokenizer.push_line(self.line_no, &raw)? {
                        return Ok(Some(logical));
                    }
                }
            }
        }
    }
}

impl Iterator for ZoneFileEvents<'_> {
    type Item = Result<ZoneEvent, MasterError>;

    fn next(&mut self) -> Option<Result<ZoneEvent, MasterError>> {
        while !self.finished {
            let (line, tokens, leading_ws) = match self.next_logical() {
                Ok(Some(logical)) => logical,
                Ok(None) => {
                    self.finished = true;
                    return None;
                }
                Err(e) => {
                    self.finished = true;
                    return Some(Err(e));
                }
            };
            let record = match self.parser.parse(line, &tokens, leading_ws) {
                Ok(Some(record)) => record,
                Ok(None) => continue,
                Err(e) => return Some(Err(e)),
            };
            match record.rdata {
                RData::Ns(host) => {
                    return Some(Ok(ZoneEvent::Cut {
                        zone: record.name,
                        ns: vec![host],
                    }))
                }
                RData::A(addr) => {
                    return Some(Ok(ZoneEvent::Glue {
                        host: record.name,
                        addr,
                    }))
                }
                _ => continue,
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::name;

    const CORNELL: &str = r#"
$ORIGIN cornell.edu.
$TTL 7200
@   IN SOA cudns.cit.cornell.edu. hostmaster.cornell.edu. (
        2004072200 ; serial
        3600       ; refresh
        900        ; retry
        1209600    ; expire
        3600 )     ; minimum
@       IN NS bigred.cit.cornell.edu.
@       IN NS cudns.cit.cornell.edu.
cs      IN NS simon.cs.cornell.edu.
cs      IN NS cayuga.cs.rochester.edu. ; off-site secondary
simon.cs   IN A 128.84.154.10
www     300 IN A 128.84.186.13
ftp     IN CNAME www
mail    IN MX 10 smtp
"#;

    /// Every record the stream parses, including the ones it discards
    /// (SOA, CNAME, MX, TXT): the stream's own tokenizer and
    /// [`LineParser`], without the event mapping.
    fn records(content: &str, origin: &DnsName) -> Result<Vec<Record>, MasterError> {
        let mut stream = ZoneFileEvents::new(content, origin);
        let mut records = Vec::new();
        while let Some((line, tokens, leading_ws)) = stream.next_logical()? {
            records.extend(stream.parser.parse(line, &tokens, leading_ws)?);
        }
        Ok(records)
    }

    fn cuts(content: &str, origin: &DnsName) -> Vec<(DnsName, DnsName)> {
        ZoneFileEvents::new(content, origin)
            .filter_map(|e| match e.unwrap() {
                ZoneEvent::Cut { zone, ns } => Some((zone, ns[0].clone())),
                ZoneEvent::Glue { .. } => None,
            })
            .collect()
    }

    #[test]
    fn parses_realistic_zone() {
        let records = records(CORNELL, &DnsName::root()).unwrap();
        // The parenthesized, commented SOA spans six lines.
        let soa = &records[0];
        assert_eq!(soa.name, name("cornell.edu"));
        match &soa.rdata {
            RData::Soa(soa) => {
                assert_eq!(soa.mname, name("cudns.cit.cornell.edu"));
                assert_eq!((soa.serial, soa.minimum), (2004072200, 3600));
            }
            other => panic!("expected SOA, got {other:?}"),
        }
        // `$TTL` sets the default, an explicit TTL overrides it, and
        // relative targets take the origin.
        let at = |owner: &str| records.iter().find(|r| r.name == name(owner)).unwrap();
        assert_eq!(at("simon.cs.cornell.edu").ttl, 7200);
        assert_eq!(at("www.cornell.edu").ttl, 300);
        assert_eq!(
            at("ftp.cornell.edu").rdata,
            RData::Cname(name("www.cornell.edu"))
        );
        assert_eq!(
            at("mail.cornell.edu").rdata,
            RData::Mx {
                preference: 10,
                exchange: name("smtp.cornell.edu")
            }
        );
        assert_eq!(records.len(), 9);
    }

    #[test]
    fn owner_inheritance_requires_prior_record() {
        let mut events = ZoneFileEvents::new("   IN A 1.2.3.4\n", &name("x.test"));
        assert!(matches!(
            events.next(),
            Some(Err(MasterError::Syntax { .. }))
        ));
        // A blank owner inherits the previous record's.
        assert_eq!(
            cuts("sub IN NS a\n    IN NS b\n", &name("x.test")),
            vec![
                (name("sub.x.test"), name("a.x.test")),
                (name("sub.x.test"), name("b.x.test")),
            ]
        );
    }

    #[test]
    fn unbalanced_parens_rejected() {
        let bad = "@ IN SOA a. b. (1 2 3 4 5\n";
        let mut events = ZoneFileEvents::new(bad, &name("x.test"));
        assert!(matches!(
            events.next(),
            Some(Err(MasterError::Syntax { .. }))
        ));
        assert!(events.next().is_none());
    }

    #[test]
    fn quoted_txt_keeps_spaces() {
        let content = r#"info IN TXT "hello world" "second \"string\"""#;
        assert_eq!(
            records(content, &name("t.test")).unwrap()[0].rdata,
            RData::Txt(vec!["hello world".into(), "second \"string\"".into()])
        );
    }

    #[test]
    fn out_of_range_16_bit_fields_rejected() {
        // MX preference and SRV priority/weight/port are 16-bit: a larger
        // value is an error naming the field, not a wrapped number.
        for (line, field) in [
            ("@ IN MX 70000 mail", "MX preference"),
            ("_sip._tcp IN SRV 65536 0 5060 sip", "SRV priority"),
            ("_sip._tcp IN SRV 0 65536 5060 sip", "SRV weight"),
            ("_sip._tcp IN SRV 0 0 65536 sip", "SRV port"),
        ] {
            match ZoneFileEvents::new(line, &name("x.test")).next() {
                Some(Err(MasterError::Syntax { line: 1, message })) => {
                    assert!(message.contains(field), "{message:?} names {field}")
                }
                other => panic!("{line:?}: expected a syntax error, got {other:?}"),
            }
        }
        let max = "@ IN MX 65535 mail\n_sip._tcp IN SRV 65535 65535 65535 sip\n";
        assert!(ZoneFileEvents::new(max, &name("x.test")).all(|e| e.is_ok()));
    }

    #[test]
    fn zone_file_events_stream_without_materializing() {
        let events: Vec<ZoneEvent> = ZoneFileEvents::new(CORNELL, &DnsName::root())
            .collect::<Result<_, _>>()
            .unwrap();
        // One Cut per NS record, in file order, with single-host fragments.
        assert_eq!(
            cuts(CORNELL, &DnsName::root()),
            vec![
                (name("cornell.edu"), name("bigred.cit.cornell.edu")),
                (name("cornell.edu"), name("cudns.cit.cornell.edu")),
                (name("cs.cornell.edu"), name("simon.cs.cornell.edu")),
                (name("cs.cornell.edu"), name("cayuga.cs.rochester.edu")),
            ]
        );
        // A records become glue; SOA/CNAME/MX lines are skipped.
        let glue: Vec<&DnsName> = events
            .iter()
            .filter_map(|e| match e {
                ZoneEvent::Glue { host, .. } => Some(host),
                _ => None,
            })
            .collect();
        assert_eq!(
            glue,
            vec![&name("simon.cs.cornell.edu"), &name("www.cornell.edu")]
        );
    }

    #[test]
    fn zone_file_events_report_record_errors_in_stream_order() {
        let content = "www IN A 1.2.3.4\nbroken IN A not-an-address\n";
        let mut events = ZoneFileEvents::new(content, &name("x.test"));
        assert!(matches!(events.next(), Some(Ok(ZoneEvent::Glue { .. }))));
        assert!(matches!(
            events.next(),
            Some(Err(MasterError::Syntax { line: 2, .. }))
        ));
        assert!(events.next().is_none());
    }

    #[test]
    fn zone_file_events_from_reader_matches_str_path() {
        // The BufRead-backed stream (the larger-than-memory path) sees
        // exactly what the borrowed-text stream sees.
        let from_str: Vec<ZoneEvent> = ZoneFileEvents::new(CORNELL, &DnsName::root())
            .collect::<Result<_, _>>()
            .unwrap();
        let reader = std::io::BufReader::new(CORNELL.as_bytes());
        let from_reader: Vec<ZoneEvent> = ZoneFileEvents::from_reader(reader, &DnsName::root())
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(from_str, from_reader);
        assert!(!from_str.is_empty());
    }

    #[test]
    fn dollar_origin_switches_context() {
        let content = r#"
$ORIGIN example.com.
@ IN NS ns
$ORIGIN sub.example.com.
@ IN NS ns2
"#;
        assert_eq!(
            cuts(content, &DnsName::root()),
            vec![
                (name("example.com"), name("ns.example.com")),
                (name("sub.example.com"), name("ns2.sub.example.com")),
            ]
        );
    }
}
