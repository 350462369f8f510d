//! Minimal JSON emission for machine-readable benchmark results.
//!
//! The workspace builds fully offline, so instead of `serde_json` this is
//! a tiny hand-rolled writer covering exactly what the `BENCH_*.json`
//! files need: objects, arrays, strings, and numbers. Results land in
//! `bench_results/` relative to the working directory.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A JSON value under construction.
#[derive(Debug, Clone)]
pub enum Json {
    Null,
    Bool(bool),
    /// Finite numbers only; NaN/inf serialize as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Insertion-ordered object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Adds (or replaces) a field on an object; panics on non-objects.
    pub fn set(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        let Json::Obj(fields) = self else {
            panic!("Json::set on a non-object");
        };
        if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value.into();
        } else {
            fields.push((key.to_string(), value.into()));
        }
        self
    }

    /// Serializes with 2-space indentation.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth + 1);
        let close = "  ".repeat(depth);
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(x) => {
                if !x.is_finite() {
                    out.push_str("null");
                } else if *x == x.trunc() && x.abs() < 9e15 {
                    let _ = write!(out, "{}", *x as i64);
                } else {
                    let _ = write!(out, "{x}");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&pad);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                out.push_str(&close);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&pad);
                    Json::Str(k.clone()).write(out, depth + 1);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                out.push('\n');
                out.push_str(&close);
                out.push('}');
            }
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}
impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}
impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x as f64)
    }
}
impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x as f64)
    }
}
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}
impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

/// Exits non-zero, naming each, if any paper claim in `broken` failed. A
/// figure binary calls it before it writes its file, so a re-pin that
/// breaks a claim fails by name instead of committing the broken figure.
pub fn assert_claims(broken: &[String]) {
    if broken.is_empty() {
        return;
    }
    for claim in broken {
        eprintln!("CLAIM FAIL: {claim}");
    }
    std::process::exit(1);
}

/// Writes `value` to `bench_results/<name>` (creating the directory) and
/// returns the path. Prints a pointer line so interactive runs surface the
/// artifact.
pub fn write_results(name: &str, value: &Json) -> std::io::Result<PathBuf> {
    let dir = Path::new("bench_results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(name);
    std::fs::write(&path, value.render())?;
    println!("\nresults written to {}", path.display());
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structures() {
        let mut obj = Json::obj();
        obj.set("name", "fig4");
        obj.set("quick", false);
        obj.set("tps", 123456.0);
        obj.set("counts", vec![1u64, 2, 3]);
        let mut inner = Json::obj();
        inner.set("a", 1.5);
        obj.set("nested", inner);
        let s = obj.render();
        assert!(s.contains("\"name\": \"fig4\""));
        assert!(s.contains("\"quick\": false"));
        assert!(s.contains("\"tps\": 123456"));
        assert!(s.contains("\"a\": 1.5"));
    }

    #[test]
    fn escapes_strings_and_maps_non_finite_to_null() {
        let mut obj = Json::obj();
        obj.set("s", "a\"b\\c\nd");
        obj.set("bad", f64::NAN);
        let s = obj.render();
        assert!(s.contains("\"a\\\"b\\\\c\\nd\""));
        assert!(s.contains("\"bad\": null"));
    }

    #[test]
    fn set_replaces_existing_keys() {
        let mut obj = Json::obj();
        obj.set("k", 1u64);
        obj.set("k", 2u64);
        assert_eq!(obj.render().matches("\"k\"").count(), 1);
        assert!(obj.render().contains("\"k\": 2"));
    }
}
