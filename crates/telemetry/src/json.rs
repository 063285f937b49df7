//! The workspace's one JSON writer: every JSON body (the monitor report,
//! the service's analysis, job, health and SSE bodies) is assembled from
//! these renderers and [`Object`], so equal values render equal bytes.

/// Escapes and quotes one JSON string.
pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_string(&mut out, s);
    out
}

/// Appends `s` to `out`, escaped and quoted.
fn push_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders a finite float with enough digits to round-trip, `null`
/// otherwise (JSON has no `inf`/`NaN`).
pub fn f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Renders an `Option` through `f`, `null` when absent.
pub fn opt<T>(v: &Option<T>, f: impl Fn(&T) -> String) -> String {
    match v {
        Some(v) => f(v),
        None => "null".to_string(),
    }
}

/// Renders already-rendered JSON values as an array, in order.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    let mut out = String::from("[");
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&item);
    }
    out.push(']');
    out
}

/// An incrementally-built JSON object; fields render in the order they
/// are added.
#[derive(Debug)]
pub struct Object {
    body: String,
}

impl Default for Object {
    fn default() -> Self {
        Object::new()
    }
}

impl Object {
    /// An empty object.
    pub fn new() -> Self {
        Object {
            body: String::from("{"),
        }
    }

    /// Appends `"key": value` with `value` already rendered as JSON.
    pub fn field(mut self, key: &str, rendered: &str) -> Self {
        if self.body.len() > 1 {
            self.body.push(',');
        }
        push_string(&mut self.body, key);
        self.body.push(':');
        self.body.push_str(rendered);
        self
    }

    /// Closes the object.
    pub fn finish(mut self) -> String {
        self.body.push('}');
        self.body
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_and_nulls() {
        assert_eq!(string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(string("t\ta\nb\u{1}"), "\"t\\ta\\nb\\u0001\"");
        assert_eq!(f64(f64::INFINITY), "null");
        assert_eq!(f64(f64::NAN), "null");
        assert_eq!(f64(1.5), "1.5");
        assert_eq!(opt(&Some(2u32), |v| v.to_string()), "2");
        assert_eq!(opt(&None::<u32>, |v| v.to_string()), "null");
    }

    #[test]
    fn objects_and_arrays_render_in_order() {
        assert_eq!(Object::new().finish(), "{}");
        let s = Object::new()
            .field("a", "1")
            .field("b", &string("x\"y"))
            .field("c", &array(["1".to_string(), "{}".to_string()]))
            .finish();
        assert_eq!(s, "{\"a\":1,\"b\":\"x\\\"y\",\"c\":[1,{}]}");
        assert_eq!(array(Vec::new()), "[]");
    }
}
