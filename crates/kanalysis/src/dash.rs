//! Rendering primitives for the `dash` run-report dashboard.
//!
//! Pure string functions — no I/O, no dependencies beyond `std` — that
//! turn numeric series into inline SVG fragments (for the self-contained
//! HTML report) and ASCII sparklines (for the terminal renderer). The
//! `dash` binary supplies the data: telemetry frame streams and phase
//! boundaries.
//!
//! All floating-point coordinates are formatted with a fixed `{:.1}`
//! precision so the generated markup is byte-stable across runs and
//! platforms.

use std::fmt::Write as _;

/// Escapes `&`, `<`, `>`, and `"` for safe embedding in HTML/SVG text.
#[must_use]
pub fn html_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// One shaded band behind a sparkline: `[start, end)` in sample indices.
/// Alternating bands visualize phase segments.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Band {
    /// First sample of the band.
    pub start: usize,
    /// One past the last sample of the band.
    pub end: usize,
}

/// Renders `values` as an inline SVG sparkline polyline, `w`×`h` pixels,
/// with alternating shaded `bands` behind it (phase bands). The vertical
/// axis spans `0..=max(values)`; an empty series renders an empty frame.
#[must_use]
pub fn svg_sparkline(values: &[f64], bands: &[Band], w: u32, h: u32) -> String {
    let mut svg = format!(
        "<svg class=\"spark\" viewBox=\"0 0 {w} {h}\" width=\"{w}\" height=\"{h}\" \
         xmlns=\"http://www.w3.org/2000/svg\">"
    );
    let n = values.len();
    if n > 0 {
        let max = values.iter().cloned().fold(0.0f64, f64::max).max(1e-12);
        let dx = f64::from(w) / n as f64;
        for (i, band) in bands.iter().enumerate() {
            if i % 2 == 0 || band.end <= band.start {
                continue;
            }
            let x = band.start as f64 * dx;
            let bw = (band.end - band.start) as f64 * dx;
            let _ = write!(
                svg,
                "<rect x=\"{x:.1}\" y=\"0\" width=\"{bw:.1}\" height=\"{h}\" \
                 fill=\"#d0d8e8\" opacity=\"0.5\"/>"
            );
        }
        let mut points = String::new();
        for (i, &v) in values.iter().enumerate() {
            // Sample at the midpoint of its slot; y axis points down.
            let x = (i as f64 + 0.5) * dx;
            let y = f64::from(h) * (1.0 - (v / max).clamp(0.0, 1.0));
            if i > 0 {
                points.push(' ');
            }
            let _ = write!(points, "{x:.1},{y:.1}");
        }
        let _ = write!(
            svg,
            "<polyline points=\"{points}\" fill=\"none\" stroke=\"#2b5b9e\" stroke-width=\"1.5\"/>"
        );
    }
    svg.push_str("</svg>");
    svg
}

/// Renders `values01` (each clamped to `0..=1`) as a horizontal heat
/// strip of equal-width cells — light for 0, saturated for 1. Used for
/// the per-set occupancy/fill view.
#[must_use]
pub fn svg_heat_strip(values01: &[f64], w: u32, h: u32) -> String {
    let mut svg = format!(
        "<svg class=\"heat\" viewBox=\"0 0 {w} {h}\" width=\"{w}\" height=\"{h}\" \
         xmlns=\"http://www.w3.org/2000/svg\">"
    );
    let n = values01.len();
    if n > 0 {
        let dx = f64::from(w) / n as f64;
        for (i, &v) in values01.iter().enumerate() {
            let v = v.clamp(0.0, 1.0);
            // White → deep blue ramp, quantized so equal inputs yield
            // byte-equal markup.
            let level = (v * 255.0).round() as u32;
            let x = i as f64 * dx;
            let _ = write!(
                svg,
                "<rect x=\"{x:.1}\" y=\"0\" width=\"{:.1}\" height=\"{h}\" \
                 fill=\"rgb({},{},255)\"/>",
                dx,
                255 - level * 200 / 255,
                255 - level * 160 / 255,
            );
        }
    }
    svg.push_str("</svg>");
    svg
}

/// Shade ramp for [`text_sparkline`], lightest to darkest.
const SHADES: [char; 5] = [' ', '.', ':', '*', '#'];

/// Renders `values` as a one-line ASCII sparkline (the terminal
/// renderer's building block): each sample becomes one character from a
/// five-step shade ramp scaled to the series maximum.
#[must_use]
pub fn text_sparkline(values: &[f64]) -> String {
    let max = values.iter().cloned().fold(0.0f64, f64::max);
    if max <= 0.0 {
        return SHADES[0].to_string().repeat(values.len());
    }
    values
        .iter()
        .map(|&v| {
            let idx = ((v / max) * (SHADES.len() - 1) as f64).round() as usize;
            SHADES[idx.min(SHADES.len() - 1)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_covers_markup_characters() {
        assert_eq!(html_escape("a<b&c>\"d\""), "a&lt;b&amp;c&gt;&quot;d&quot;");
        assert_eq!(html_escape("plain"), "plain");
    }

    #[test]
    fn sparkline_is_wellformed_and_deterministic() {
        let values = [0.0, 0.5, 1.0, 0.25];
        let bands = [Band { start: 0, end: 2 }, Band { start: 2, end: 4 }];
        let a = svg_sparkline(&values, &bands, 200, 40);
        let b = svg_sparkline(&values, &bands, 200, 40);
        assert_eq!(a, b, "byte-stable output");
        assert!(a.starts_with("<svg") && a.ends_with("</svg>"));
        assert!(a.contains("<polyline"));
        // Only the odd (second) band is shaded.
        assert_eq!(a.matches("<rect").count(), 1);
        // The maximum maps to y = 0.
        assert!(a.contains(",0.0"), "{a}");
        // Empty series: a frame with no geometry.
        let empty = svg_sparkline(&[], &[], 100, 20);
        assert!(!empty.contains("polyline"));
    }

    #[test]
    fn heat_strip_quantizes_a_cell_per_value() {
        let svg = svg_heat_strip(&[0.0, 0.5, 1.0], 120, 8);
        assert_eq!(svg.matches("<rect").count(), 3);
        assert!(svg.contains("rgb(255,255,255)"), "zero is white: {svg}");
        assert!(svg.contains("rgb(55,95,255)"), "one is deep blue: {svg}");
        // Out-of-range inputs clamp instead of corrupting the ramp.
        let clamped = svg_heat_strip(&[-1.0, 2.0], 10, 4);
        assert!(clamped.contains("rgb(255,255,255)"));
        assert!(clamped.contains("rgb(55,95,255)"));
    }

    #[test]
    fn text_sparkline_scales_to_series_max() {
        assert_eq!(text_sparkline(&[0.0, 0.25, 0.5, 0.75, 1.0]), " .:*#");
        assert_eq!(text_sparkline(&[0.0, 0.0]), "  ", "all-zero series");
        assert_eq!(text_sparkline(&[]), "");
        // Scaling is relative: a small-magnitude series uses the full ramp.
        assert_eq!(text_sparkline(&[0.001, 0.002]), ":#");
    }
}
