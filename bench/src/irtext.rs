//! Function-level edits on printed IR text.
//!
//! The write workload edits modules the way a build system's client
//! would: it holds source text, swaps one function's body for a
//! sibling's, and sends the result. Working on the printed form (one
//! `define … {` header line, body lines, a closing `}` line, all at
//! column 0) keeps the harness's own copy of every module independent of
//! the product's in-memory IR.

use std::ops::Range;

/// One function definition inside a module's text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FnText<'a> {
    pub name: &'a str,
    /// Parameter list and return type, e.g. `(i64 %0) -> i64 {`.
    pub sig: &'a str,
    /// The lines between the header and the closing brace.
    pub body: &'a str,
    /// Byte range of `body` in the module text.
    pub body_span: Range<usize>,
}

/// Every `define`d function of `text`, in order.
pub fn functions(text: &str) -> Vec<FnText<'_>> {
    let mut out = Vec::new();
    let mut open: Option<(&str, &str, usize)> = None;
    let mut offset = 0;
    for line in text.split_inclusive('\n') {
        let bare = line.trim_end_matches('\n');
        match open {
            None => {
                if let Some((name, sig)) = parse_header(bare) {
                    open = Some((name, sig, offset + line.len()));
                }
            }
            Some((name, sig, start)) => {
                if bare == "}" {
                    out.push(FnText {
                        name,
                        sig,
                        body: &text[start..offset],
                        body_span: start..offset,
                    });
                    open = None;
                }
            }
        }
        offset += line.len();
    }
    out
}

/// `(name, signature)` of a `define [linkage] @name(params) -> ret {` line.
fn parse_header(line: &str) -> Option<(&str, &str)> {
    let rest = line.strip_prefix("define ")?;
    let at = rest.find('@')?;
    let paren = rest.find('(')?;
    (at < paren && line.ends_with('{')).then(|| (&rest[at + 1..paren], &rest[paren..]))
}

/// The family a generated function belongs to: `f12_3` → `f12`.
fn family(name: &str) -> Option<&str> {
    let (fam, member) = name.rsplit_once('_')?;
    (fam.starts_with('f') && member.bytes().all(|b| b.is_ascii_digit())).then_some(fam)
}

/// Every ordered `(dst, src)` pair of one family whose signatures agree
/// and whose printed bodies differ — the swaps that keep the module
/// verifying and are guaranteed to register as a change.
pub fn swap_pairs(text: &str) -> Vec<(String, String)> {
    let fns = functions(text);
    let mut pairs = Vec::new();
    for a in &fns {
        let Some(fam) = family(a.name) else { continue };
        for b in &fns {
            if a.name != b.name && family(b.name) == Some(fam) && a.sig == b.sig && a.body != b.body
            {
                pairs.push((a.name.to_string(), b.name.to_string()));
            }
        }
    }
    pairs
}

/// One `(dst, src_a, src_b)` per function family of `text`, in text
/// order, where `dst` can take the body of either source and the three
/// printed bodies all differ: a site whose body can be switched between
/// the two sources for ever, each switch a real change.
pub fn toggle_sites(text: &str) -> Vec<(String, String, String)> {
    let fns = functions(text);
    let body = |name: &str| fns.iter().find(|f| f.name == name).map(|f| f.body);
    let pairs = swap_pairs(text);
    let mut sites: Vec<(String, String, String)> = Vec::new();
    for (i, (dst, a)) in pairs.iter().enumerate() {
        if sites.iter().any(|(d, _, _)| family(d) == family(dst)) {
            continue;
        }
        let second = pairs[i + 1..]
            .iter()
            .find(|(d, b)| d == dst && body(b) != body(a));
        if let Some((_, b)) = second {
            sites.push((dst.clone(), a.clone(), b.clone()));
        }
    }
    sites
}

/// `text` with `dst`'s body replaced by `src`'s. `None` when either is
/// missing, the signatures differ, or the bodies are already identical.
pub fn body_swap(text: &str, dst: &str, src: &str) -> Option<String> {
    let fns = functions(text);
    let d = fns.iter().find(|f| f.name == dst)?;
    let s = fns.iter().find(|f| f.name == src)?;
    if d.sig != s.sig || d.body == s.body {
        return None;
    }
    let mut out = String::with_capacity(text.len() + s.body.len());
    out.push_str(&text[..d.body_span.start]);
    out.push_str(s.body);
    out.push_str(&text[d.body_span.end..]);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MODULE: &str = "module \"m\" {\n\
        declare @ext_src_i64(i64) -> i64\n\
        \n\
        define internal @f0_0(i64 %0) -> i64 {\n\
        bb0:\n  %1 = add i64 %0, 1\n  ret i64 %1\n\
        }\n\
        \n\
        define @f0_1(i64 %0) -> i64 {\n\
        bb0:\n  %1 = add i64 %0, 2\n  ret i64 %1\n\
        }\n\
        \n\
        define internal @f0_2(i64 %0) -> i64 {\n\
        bb0:\n  %1 = add i64 %0, 1\n  ret i64 %1\n\
        }\n\
        \n\
        define internal @f1_0(i32 %0) -> i32 {\n\
        bb0:\n  ret i32 %0\n\
        }\n\
        \n\
        define @__driver(i64 %0) -> i64 {\n\
        bb0:\n  ret i64 %0\n\
        }\n\
        }\n";

    #[test]
    fn functions_are_found_with_their_signatures_and_bodies() {
        let fns = functions(MODULE);
        let names: Vec<&str> = fns.iter().map(|f| f.name).collect();
        assert_eq!(names, ["f0_0", "f0_1", "f0_2", "f1_0", "__driver"]);
        assert_eq!(fns[0].sig, "(i64 %0) -> i64 {");
        assert_eq!(fns[0].body, "bb0:\n  %1 = add i64 %0, 1\n  ret i64 %1\n");
        assert_eq!(&MODULE[fns[3].body_span.clone()], "bb0:\n  ret i32 %0\n");
    }

    #[test]
    fn swap_pairs_never_pair_identical_bodies_or_other_families() {
        // f0_0 and f0_2 print the same body, so they are never paired with
        // each other; f1_0 is alone in its family; __driver has none.
        assert_eq!(
            swap_pairs(MODULE),
            [
                ("f0_0", "f0_1"),
                ("f0_1", "f0_0"),
                ("f0_1", "f0_2"),
                ("f0_2", "f0_1")
            ]
            .map(|(a, b)| (a.to_string(), b.to_string()))
        );
        for (dst, src) in swap_pairs(MODULE) {
            let fns = functions(MODULE);
            let body = |n: &str| fns.iter().find(|f| f.name == n).unwrap().body;
            assert_ne!(body(&dst), body(&src));
        }
    }

    #[test]
    fn toggle_sites_need_three_different_bodies_in_one_family() {
        // f0_1 is the only function of MODULE with two sources, and they
        // (f0_0, f0_2) print the same body.
        assert_eq!(toggle_sites(MODULE), []);
        let three = MODULE.replace(
            "%1 = add i64 %0, 1\n  ret i64 %1\n}\n\ndefine internal @f1_0",
            "%1 = add i64 %0, 3\n  ret i64 %1\n}\n\ndefine internal @f1_0",
        );
        assert_eq!(
            toggle_sites(&three),
            [("f0_0".to_string(), "f0_1".to_string(), "f0_2".to_string())]
        );
    }

    #[test]
    fn body_swap_replaces_exactly_one_body() {
        let swapped = body_swap(MODULE, "f0_0", "f0_1").unwrap();
        let fns = functions(&swapped);
        assert_eq!(fns[0].name, "f0_0");
        assert_eq!(fns[0].body, fns[1].body);
        assert_eq!(fns[0].sig, "(i64 %0) -> i64 {");
        assert_eq!(swapped.len(), MODULE.len());
        // after the swap f0_0 and f0_1 are identical, so only f0_2 differs
        assert!(!swap_pairs(&swapped).contains(&("f0_0".into(), "f0_1".into())));
        assert_eq!(body_swap(MODULE, "f0_0", "f0_2"), None, "identical bodies");
        assert_eq!(body_swap(MODULE, "f0_0", "f1_0"), None, "signature differs");
        assert_eq!(body_swap(MODULE, "f0_0", "nope"), None, "unknown function");
    }
}
