//! A schematic stand-in for Figure 1 (a photograph of the racks).
//!
//! Seven wire-shelving units of 42 Shuttle XPC nodes each, plus the rack
//! holding the FastIron 800 (top) and FastIron 1500 (bottom), joined by
//! the orange fiber trunk.

/// Render the machine-room schematic as ASCII art.
pub fn figure1_schematic() -> String {
    let mut s = String::new();
    s.push_str("The Space Simulator, 294 nodes on wire shelving + switch rack\n");
    s.push_str("=============================================================\n\n");
    s.push_str("  switch rack                 shelving (42 XPCs per unit)\n");
    s.push_str("  +-----------------+\n");
    s.push_str("  | FastIron 800    |   ");
    for _ in 0..7 {
        s.push_str("+------+");
    }
    s.push('\n');
    s.push_str("  |  (80 ports)     |   ");
    for _ in 0..7 {
        s.push_str("|XPC x6|");
    }
    s.push('\n');
    s.push_str("  +-----------------+   ");
    for _ in 0..7 {
        s.push_str("|XPC x6|");
    }
    s.push('\n');
    s.push_str("  | fiber trunk     |   ");
    for _ in 0..7 {
        s.push_str("|XPC x6|");
    }
    s.push('\n');
    s.push_str("  | 8 Gbit/s ~~~~~~ |   ");
    for _ in 0..7 {
        s.push_str("|XPC x6|");
    }
    s.push('\n');
    s.push_str("  +-----------------+   ");
    for _ in 0..7 {
        s.push_str("|XPC x6|");
    }
    s.push('\n');
    s.push_str("  | FastIron 1500   |   ");
    for _ in 0..7 {
        s.push_str("|XPC x6|");
    }
    s.push('\n');
    s.push_str("  |  (224 ports,    |   ");
    for _ in 0..7 {
        s.push_str("|XPC x6|");
    }
    s.push('\n');
    s.push_str("  |   cat6 to nodes)|   ");
    for _ in 0..7 {
        s.push_str("+------+");
    }
    s.push('\n');
    s.push_str("  +-----------------+\n\n");
    s.push_str("  7 shelving units x 42 nodes = 294 nodes; 224 cat6 runs to\n");
    s.push_str("  the FastIron 1500, 70 to the FastIron 800.\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schematic_mentions_the_hardware() {
        let s = figure1_schematic();
        assert!(s.contains("FastIron 1500"));
        assert!(s.contains("FastIron 800"));
        assert!(s.contains("8 Gbit/s"));
        assert!(s.contains("294 nodes"));
    }
}
