//! The Section 2 worked example, cycle by cycle: a 2×2 grid of two-lane
//! bit-serial subunits processing a fully-connected layer with 2-bit weights
//! and activations — two activations, four filters, five cycles.
//!
//! The `Sip` holds its weight registers as a packed plane word, so every
//! `cycle()` below is internally one `AND` + `count_ones()`. The coda replays
//! the example through `serial_inner_product` (the same recipe as one
//! function call) and through `wide_inner_product` (the 256-lane datapath the
//! functional engine runs) to show all three views are the same computation.
//!
//! Run with: `cargo run --release -p loom-core --example paper_walkthrough`

use loom_core::loom_model::fixed::{bit_of, Precision};
use loom_core::loom_sim::loom::{serial_inner_product, wide_inner_product, Sip, WideBitplaneBlock};

fn main() {
    // Two 2-bit input activations and four filters of two 2-bit weights each
    // (unsigned, as in the figure).
    let activations = [2i32, 3]; // a0, a1
    let filters = [[1i32, 2], [3, 1], [2, 2], [1, 3]]; // w^0, w^1, w^2, w^3
    println!("Activations: a0={} a1={}", activations[0], activations[1]);
    for (k, f) in filters.iter().enumerate() {
        println!("Filter {k}: w{k}0={} w{k}1={}", f[0], f[1]);
    }
    println!();

    // One subunit per (column, row): column 0 handles filters 0-1, column 1
    // handles filters 2-3, exactly as Figure 1 draws it.
    let mut sips: Vec<Sip> = (0..4).map(|_| Sip::new(2)).collect();
    let act_bits = |bit: u8| -> Vec<u8> { activations.iter().map(|&a| bit_of(a, bit)).collect() };
    let w_bits =
        |k: usize, bit: u8| -> Vec<u8> { filters[k].iter().map(|&w| bit_of(w, bit)).collect() };

    // Cycle 1: left column loads the LSBs of filters 0 and 1 and multiplies by
    // the LSBs of a0 and a1.
    println!("Cycle 1: left column loads LSB of filters 0/1, multiplies by LSB of a0/a1");
    sips[0].load_weight_bits(&w_bits(0, 0));
    sips[1].load_weight_bits(&w_bits(1, 0));
    sips[0].cycle(&act_bits(0), 0, false);
    sips[1].cycle(&act_bits(0), 0, false);

    // Cycle 2: left column multiplies the same weight bits by the MSBs of the
    // activations; right column loads the LSBs of filters 2/3 and multiplies by
    // the activation LSBs.
    println!("Cycle 2: left column x MSB of activations; right column loads LSB of filters 2/3");
    sips[0].cycle(&act_bits(1), 1, false);
    sips[1].cycle(&act_bits(1), 1, false);
    sips[0].commit_weight_bit(0, false);
    sips[1].commit_weight_bit(0, false);
    sips[2].load_weight_bits(&w_bits(2, 0));
    sips[3].load_weight_bits(&w_bits(3, 0));
    sips[2].cycle(&act_bits(0), 0, false);
    sips[3].cycle(&act_bits(0), 0, false);

    // Cycle 3: left column loads the weight MSBs; right column reuses its
    // weights against the activation MSBs.
    println!("Cycle 3: left column loads MSB of filters 0/1; right column x MSB of activations");
    sips[0].load_weight_bits(&w_bits(0, 1));
    sips[1].load_weight_bits(&w_bits(1, 1));
    sips[0].cycle(&act_bits(0), 0, false);
    sips[1].cycle(&act_bits(0), 0, false);
    sips[2].cycle(&act_bits(1), 1, false);
    sips[3].cycle(&act_bits(1), 1, false);
    sips[2].commit_weight_bit(0, false);
    sips[3].commit_weight_bit(0, false);

    // Cycle 4: left column finishes o0/o1; right column loads the weight MSBs.
    println!("Cycle 4: left column finishes o0/o1; right column loads MSB of filters 2/3");
    sips[0].cycle(&act_bits(1), 1, false);
    sips[1].cycle(&act_bits(1), 1, false);
    sips[0].commit_weight_bit(1, false);
    sips[1].commit_weight_bit(1, false);
    sips[2].load_weight_bits(&w_bits(2, 1));
    sips[3].load_weight_bits(&w_bits(3, 1));
    sips[2].cycle(&act_bits(0), 0, false);
    sips[3].cycle(&act_bits(0), 0, false);

    // Cycle 5: right column finishes o2/o3.
    println!("Cycle 5: right column finishes o2/o3\n");
    sips[2].cycle(&act_bits(1), 1, false);
    sips[3].cycle(&act_bits(1), 1, false);
    sips[2].commit_weight_bit(1, false);
    sips[3].commit_weight_bit(1, false);

    for (k, sip) in sips.iter().enumerate() {
        let expected: i64 = filters[k]
            .iter()
            .zip(activations.iter())
            .map(|(&w, &a)| i64::from(w) * i64::from(a))
            .sum();
        println!("o{k} = {} (expected {expected})", sip.output());
        assert_eq!(sip.output(), expected, "bit-serial result must match");
    }
    println!("\n5 cycles for 32 1-bit products — matching Section 2 of the paper.");

    // The packed view of the very same computation: transpose each operand
    // pair into bit planes once, then every (weight-bit, activation-bit) step
    // is one AND + popcount word operation.
    println!("\nPacked view: one AND + popcount per (weight bit, activation bit) plane pair");
    let p2 = Precision::new(2).unwrap();
    let a_block = WideBitplaneBlock::pack(&activations);
    println!(
        "activation planes: bit0={:02b} bit1={:02b} (lanes a0,a1)",
        a_block.plane_words(0)[0],
        a_block.plane_words(1)[0]
    );
    for (k, (f, sip)) in filters.iter().zip(sips.iter()).enumerate() {
        let serial = serial_inner_product(f, &activations, p2, p2, false, false);
        assert_eq!(
            serial,
            sip.output(),
            "one-shot recipe must match the replay"
        );
        let w_block = WideBitplaneBlock::pack(f);
        let o = wide_inner_product(&w_block, &a_block, p2, p2, false, false);
        assert_eq!(o, sip.output(), "packed result must match the cycle replay");
        println!(
            "o{k} = {o} from weight planes bit0={:02b} bit1={:02b}",
            w_block.plane_words(0)[0],
            w_block.plane_words(1)[0]
        );
    }
}
