//! What the bench exports need from [`sdn_ctrl::rest::json`]: export
//! documents render as compact JSON with sorted keys, non-finite
//! timings render as `null`, and `bench_check` reads committed
//! baselines back through the same parser.

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use sdn_ctrl::rest::json::{parse, Json};

    fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect::<BTreeMap<_, _>>(),
        )
    }

    fn s(v: &str) -> Json {
        Json::Str(v.to_string())
    }

    #[test]
    fn renders_nested_structure() {
        let j = obj(vec![
            ("name", s("slf-greedy")),
            ("n", Json::Num(1024.0)),
            ("ms", Json::Num(12.5)),
            ("ok", Json::Bool(true)),
            ("tags", Json::Arr(vec![s("a"), s("b")])),
        ]);
        assert_eq!(
            j.render(),
            r#"{"ms":12.5,"n":1024,"name":"slf-greedy","ok":true,"tags":["a","b"]}"#
        );
    }

    #[test]
    fn escapes_strings() {
        assert_eq!(s("a\"b\\c\nd").render(), r#""a\"b\\c\nd""#);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn parse_round_trips_emitted_documents() {
        let j = obj(vec![
            ("name", s("slf-greedy")),
            ("n", Json::Num(1024.0)),
            ("ms", Json::Num(12.5)),
            ("neg", Json::Num(-0.25)),
            ("ok", Json::Bool(true)),
            ("nil", Json::Null),
            ("tags", Json::Arr(vec![s("a\n\"b\""), s("ü")])),
        ]);
        let parsed = parse(&j.render()).unwrap();
        assert_eq!(parsed, j);
    }

    #[test]
    fn parse_real_export_shape() {
        let doc = r#" {"experiment":"rounds_scaling","max_n":512,
            "records":[{"workload":"reversal","algo":"peacock","n":4,"rounds":2,"ms":0.010225}]} "#;
        let j = parse(doc).unwrap();
        assert_eq!(
            j.get("experiment").and_then(Json::as_str),
            Some("rounds_scaling")
        );
        assert_eq!(j.get("max_n").and_then(Json::as_f64), Some(512.0));
        let recs = j.get("records").and_then(Json::as_array).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].get("ms").and_then(Json::as_f64), Some(0.010225));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}{}").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("truth").is_err());
    }

    #[test]
    fn parse_unicode_escapes() {
        assert_eq!(parse(r#""\u0041\tb""#).unwrap(), s("A\tb"));
    }
}
