//! Proleptic-Gregorian date arithmetic and XSD lexical forms.
//!
//! Dates are represented as **days since 1970-01-01** (may be negative),
//! dateTimes as **seconds since the epoch**. Both therefore inline into
//! order-preserving OID payloads. The civil-from-days / days-from-civil
//! algorithms are Howard Hinnant's public-domain ones.

use crate::error::ModelError;
use crate::term::push_fmt;

/// Days since 1970-01-01 for the given civil date.
pub fn days_from_civil(year: i32, month: u32, day: u32) -> i64 {
    let y = if month <= 2 { year - 1 } else { year } as i64;
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let m = month as i64;
    let d = day as i64;
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146097 + doe - 719468
}

/// Civil date (year, month, day) for the given days-since-epoch.
pub fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    ((if m <= 2 { y + 1 } else { y }) as i32, m, d)
}

/// Parse an `xsd:date` lexical form `YYYY-MM-DD` into days since the epoch.
pub fn parse_date(s: &str) -> Result<i64, ModelError> {
    let bad = || ModelError::BadDate(s.to_string());
    let (ystr, rest) = s.split_once('-').ok_or_else(bad)?;
    let (mstr, dstr) = rest.split_once('-').ok_or_else(bad)?;
    let year: i32 = ystr.parse().map_err(|_| bad())?;
    let month: u32 = mstr.parse().map_err(|_| bad())?;
    let day: u32 = dstr.parse().map_err(|_| bad())?;
    if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
        return Err(bad());
    }
    Ok(days_from_civil(year, month, day))
}

/// Render days-since-epoch as `YYYY-MM-DD`.
pub fn format_date(days: i64) -> String {
    let mut out = String::new();
    push_date(&mut out, days);
    out
}

/// [`format_date`], appended to `out`.
pub fn push_date(out: &mut String, days: i64) {
    let (y, m, d) = civil_from_days(days);
    push_fmt(out, format_args!("{y:04}-{m:02}-{d:02}"));
}

/// Parse an `xsd:dateTime` form `YYYY-MM-DDThh:mm:ss[Z]` into epoch seconds.
pub fn parse_datetime(s: &str) -> Result<i64, ModelError> {
    let bad = || ModelError::BadDate(s.to_string());
    let (date, time) = s.split_once('T').ok_or_else(bad)?;
    let days = parse_date(date)?;
    let time = time.trim_end_matches('Z');
    let mut parts = time.split(':');
    let h: i64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let mi: i64 = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let sec: f64 = parts.next().unwrap_or("0").parse().map_err(|_| bad())?;
    if parts.next().is_some() || h > 23 || mi > 59 || sec >= 61.0 {
        return Err(bad());
    }
    Ok(days * 86_400 + h * 3_600 + mi * 60 + sec as i64)
}

/// Append epoch seconds to `out` as `YYYY-MM-DDThh:mm:ssZ`.
pub fn push_datetime(out: &mut String, secs: i64) {
    let rem = secs.rem_euclid(86_400);
    let (h, mi, s) = (rem / 3_600, (rem % 3_600) / 60, rem % 60);
    push_date(out, secs.div_euclid(86_400));
    push_fmt(out, format_args!("T{h:02}:{mi:02}:{s:02}Z"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(civil_from_days(0), (1970, 1, 1));
    }

    #[test]
    fn roundtrip_known_dates() {
        for (y, m, d) in [
            (1992, 1, 1),
            (1996, 2, 29),
            (1998, 12, 31),
            (2000, 2, 29),
            (1900, 3, 1),
            (2038, 1, 19),
        ] {
            let days = days_from_civil(y, m, d);
            assert_eq!(civil_from_days(days), (y, m, d), "date {y}-{m}-{d}");
        }
    }

    #[test]
    fn parse_and_format() {
        let d = parse_date("1996-07-04").unwrap();
        assert_eq!(format_date(d), "1996-07-04");
        assert!(parse_date("1996-13-04").is_err());
        assert!(parse_date("oops").is_err());
    }

    #[test]
    fn ordering_matches_calendar() {
        assert!(parse_date("1994-01-01").unwrap() < parse_date("1994-01-02").unwrap());
        assert!(parse_date("1994-12-31").unwrap() < parse_date("1995-01-01").unwrap());
    }

    #[test]
    fn datetime_roundtrip() {
        let t = parse_datetime("1996-07-04T12:34:56Z").unwrap();
        let mut text = String::new();
        push_datetime(&mut text, t);
        assert_eq!(text, "1996-07-04T12:34:56Z");
        assert!(parse_datetime("1996-07-04").is_err());
    }

    #[test]
    fn tpch_date_range_is_small() {
        // TPC-H dates span 1992-01-01 .. 1998-12-31; well within inline range.
        let lo = parse_date("1992-01-01").unwrap();
        let hi = parse_date("1998-12-31").unwrap();
        assert!(lo > 8000 && hi < 11000);
    }
}
