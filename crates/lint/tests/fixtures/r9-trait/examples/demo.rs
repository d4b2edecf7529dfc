fn main() {
    net::measure_site(&site::Site("home".into()));
    site::Page("about".into()).handle();
}
