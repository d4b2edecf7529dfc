use std::time::SystemTime;

pub fn sample_stamp() -> SystemTime {
    SystemTime::now()
}
