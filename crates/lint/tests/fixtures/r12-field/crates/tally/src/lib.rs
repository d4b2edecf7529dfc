//! R12 field fixture: `Tally::total` is read through `.total`, `peak`
//! through a destructuring pattern, and `Summary`'s fields by its
//! `Serialize` derive. `Tally::label` is only written by a struct
//! literal and read by a unit test. Fires `test-only-api` exactly once,
//! on `Tally::label`.

#[derive(Debug, Clone)]
pub struct Tally {
    pub total: u32,
    pub peak: u32,
    pub label: String,
}

#[derive(Serialize)]
pub struct Summary {
    pub tallies: usize,
}

pub fn tally(counts: &[u32]) -> Tally {
    Tally {
        total: counts.iter().sum(),
        peak: counts.iter().copied().max().unwrap_or(0),
        label: String::new(),
    }
}

pub fn report(t: &Tally) -> (u32, u32) {
    let Tally { peak, .. } = t;
    (t.total, *peak)
}

pub fn summary(tallies: &[Tally]) -> Summary {
    Summary {
        tallies: tallies.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_starts_empty() {
        assert!(tally(&[1]).label.is_empty());
    }
}
