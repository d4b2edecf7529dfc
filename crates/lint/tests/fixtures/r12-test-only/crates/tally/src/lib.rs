//! R12 fixture: fires `test-only-api` exactly once, on `Tally::peak`,
//! which only the unit test below and `tests/peak.rs` call. `total` is
//! used as a value in `report`, and the example calls `new` and `report`.

pub struct Tally(Vec<u32>);

impl Tally {
    pub fn new(counts: Vec<u32>) -> Tally {
        Tally(counts)
    }

    pub fn total(&self) -> u32 {
        self.0.iter().sum()
    }

    pub fn peak(&self) -> u32 {
        self.0.iter().copied().max().unwrap_or(0)
    }
}

pub fn report(tallies: &[Tally]) -> Vec<u32> {
    tallies.iter().map(Tally::total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_is_the_largest_count() {
        assert_eq!(Tally::new(vec![1, 3, 2]).peak(), 3);
    }
}
