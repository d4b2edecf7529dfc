#[test]
fn empty_peak_is_zero() {
    assert_eq!(tally::Tally::new(Vec::new()).peak(), 0);
}
