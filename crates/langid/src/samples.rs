//! Out-of-sample consent text, one sentence per language: shared by the
//! unit tests and the `equivalence` integration test.

use crate::Language;

/// Consent-banner copy in each supported language, none of it taken from
/// the training corpora.
pub(crate) const SAMPLES: &[(Language, &str)] = &[
    (
        Language::German,
        "Bitte stimmen Sie der Nutzung von Cookies zu oder lesen Sie unsere Inhalte werbefrei mit einem günstigen Abonnement.",
    ),
    (
        Language::English,
        "Please agree to the use of cookies or read our content ad-free with an affordable monthly plan.",
    ),
    (
        Language::Italian,
        "Acconsenti all'uso dei cookie oppure leggi i nostri contenuti senza pubblicità con un abbonamento conveniente.",
    ),
    (
        Language::Swedish,
        "Godkänn användningen av kakor eller läs vårt innehåll reklamfritt med en billig prenumeration varje månad.",
    ),
    (
        Language::French,
        "Acceptez l'utilisation des cookies ou lisez nos contenus sans publicité grâce à un abonnement avantageux.",
    ),
    (
        Language::Portuguese,
        "Aceite a utilização de cookies ou leia os nossos conteúdos sem publicidade com uma assinatura acessível.",
    ),
    (
        Language::Spanish,
        "Acepte el uso de cookies o lea nuestros contenidos sin publicidad con una suscripción asequible cada mes.",
    ),
    (
        Language::Dutch,
        "Accepteer het gebruik van cookies of lees onze inhoud reclamevrij met een voordelig maandabonnement.",
    ),
];
