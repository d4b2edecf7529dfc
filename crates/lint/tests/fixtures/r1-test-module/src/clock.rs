use std::time::SystemTime;

pub fn stamp() -> SystemTime {
    SystemTime::now()
}
