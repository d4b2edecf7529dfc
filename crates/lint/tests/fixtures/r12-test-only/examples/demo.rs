fn main() {
    let tallies = [tally::Tally::new(vec![2, 5])];
    println!("{:?}", tally::report(&tallies));
}
