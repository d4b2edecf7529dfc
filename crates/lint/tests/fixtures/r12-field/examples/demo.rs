fn main() {
    let t = tally::tally(&[2, 5]);
    println!("{:?}", tally::report(&t));
    let _ = tally::summary(&[t]);
}
