//! Language-specific page content: body prose, banner and cookiewall copy,
//! button labels, and price formatting.
//!
//! The texts here are what the measurement pipeline actually gets to read —
//! the language detector labels sites from this prose, and the cookiewall
//! classifier matches its word corpus against this banner copy. They are
//! intentionally distinct sentences from the `langid` training corpora.

use crate::spec::{Currency, Period, PriceSpec};
use langid::Language;
use std::fmt;

/// Body paragraphs per language. Sites cycle through these by a
/// domain-derived offset, so different sites show different (but same-
/// language) text.
pub fn body_sentences(lang: Language) -> &'static [&'static str] {
    match lang {
        Language::German => &[
            "Am Dienstag entschied der Stadtrat über die Sanierung der alten Brücke, die seit Jahren gesperrt ist.",
            "Die Feuerwehr rückte in der Nacht zu einem Brand in einem leerstehenden Lagerhaus aus, verletzt wurde niemand.",
            "Im Interview spricht die Trainerin über den Aufstieg, die kommende Saison und den Druck im Verein.",
            "Nach dem Sturm räumten viele Freiwillige die umgestürzten Bäume von den Wegen im Stadtpark.",
            "Der neue Fahrplan bringt mehr Verbindungen am Wochenende, allerdings steigen auch die Preise leicht.",
            "Forschende der Hochschule stellten ein Verfahren vor, das Wärme aus Abwasser zurückgewinnt.",
            "Die Ausstellung im Museum zeigt Fotografien aus hundert Jahren Stadtgeschichte und läuft bis Oktober.",
            "Beim Wochenmarkt gilt ab sofort ein neues Konzept mit mehr regionalen Ständen und längeren Öffnungszeiten.",
        ],
        Language::English => &[
            "On Tuesday the council voted to refurbish the old bridge, which has been closed for years.",
            "Firefighters were called to a blaze in an empty warehouse overnight; nobody was hurt.",
            "In an interview the coach discusses promotion, the coming season and the pressure at the club.",
            "After the storm, volunteers cleared fallen trees from the paths in the city park.",
            "The new timetable adds weekend services, although fares will rise slightly as well.",
            "University researchers presented a process that recovers heat from waste water.",
            "The museum exhibition shows a century of city photography and runs until October.",
            "The weekly market moves to a new format with more regional stalls and longer hours.",
        ],
        Language::Italian => &[
            "Martedì il consiglio comunale ha approvato il restauro del vecchio ponte, chiuso da anni.",
            "I vigili del fuoco sono intervenuti nella notte per un incendio in un magazzino vuoto, nessun ferito.",
            "Nell'intervista l'allenatrice parla della promozione, della prossima stagione e della pressione nel club.",
            "Dopo la tempesta molti volontari hanno liberato i sentieri del parco dagli alberi caduti.",
            "Il nuovo orario aggiunge corse nel fine settimana, anche se i biglietti aumenteranno leggermente.",
            "I ricercatori dell'università hanno presentato un processo che recupera calore dalle acque reflue.",
            "La mostra al museo racconta cento anni di storia della città e resterà aperta fino a ottobre.",
        ],
        Language::Swedish => &[
            "På tisdagen beslutade kommunfullmäktige att renovera den gamla bron som varit avstängd i flera år.",
            "Räddningstjänsten ryckte ut till en brand i ett tomt lagerhus under natten, ingen skadades.",
            "I intervjun berättar tränaren om uppflyttningen, den kommande säsongen och pressen i klubben.",
            "Efter stormen röjde frivilliga bort fallna träd från gångvägarna i stadsparken.",
            "Den nya tidtabellen ger fler avgångar på helgerna, samtidigt höjs biljettpriserna något.",
            "Forskare vid högskolan presenterade en metod som återvinner värme ur avloppsvatten.",
        ],
        Language::French => &[
            "Mardi, le conseil municipal a voté la rénovation du vieux pont, fermé depuis des années.",
            "Les pompiers sont intervenus dans la nuit pour un incendie dans un entrepôt vide, personne n'a été blessé.",
            "Dans un entretien, l'entraîneuse évoque la montée, la saison à venir et la pression au club.",
            "Après la tempête, des bénévoles ont dégagé les arbres tombés sur les allées du parc municipal.",
            "Le nouvel horaire ajoute des liaisons le week-end, même si les tarifs augmentent légèrement.",
        ],
        Language::Portuguese => &[
            "Na terça-feira, a câmara aprovou a reabilitação da ponte antiga, fechada há anos.",
            "Os bombeiros foram chamados durante a noite para um incêndio num armazém vazio; ninguém ficou ferido.",
            "Na entrevista, a treinadora fala da subida, da próxima época e da pressão no clube.",
            "Depois da tempestade, voluntários retiraram as árvores caídas dos caminhos do parque da cidade.",
            "O novo horário acrescenta ligações ao fim de semana, embora os bilhetes fiquem um pouco mais caros.",
        ],
        Language::Spanish => &[
            "El martes el ayuntamiento aprobó la rehabilitación del puente viejo, cerrado desde hace años.",
            "Los bomberos acudieron por la noche a un incendio en un almacén vacío; nadie resultó herido.",
            "En la entrevista, la entrenadora habla del ascenso, de la próxima temporada y de la presión en el club.",
            "Tras la tormenta, voluntarios retiraron los árboles caídos de los caminos del parque municipal.",
            "El nuevo horario añade servicios los fines de semana, aunque los billetes subirán ligeramente.",
        ],
        Language::Dutch => &[
            "Dinsdag stemde de gemeenteraad in met de renovatie van de oude brug, die al jaren dicht is.",
            "De brandweer rukte 's nachts uit voor een brand in een leegstaande loods; niemand raakte gewond.",
            "In het interview vertelt de trainer over de promotie, het komende seizoen en de druk bij de club.",
            "Na de storm ruimden vrijwilligers de omgevallen bomen van de paden in het stadspark.",
            "De nieuwe dienstregeling voegt weekendritten toe, al stijgen de ticketprijzen licht.",
        ],
    }
}

/// Copy for a regular cookie banner (contains consent vocabulary but no
/// subscription offer — must *not* trigger the cookiewall classifier).
pub fn banner_text(lang: Language) -> &'static str {
    match lang {
        Language::German => "Wir verwenden Cookies, um Inhalte und Anzeigen zu personalisieren und unsere Zugriffe zu analysieren. Sie können der Verwendung zustimmen oder sie ablehnen. Details finden Sie in der Datenschutzerklärung.",
        Language::English => "We use cookies to personalise content and ads and to analyse our traffic. You can consent to their use or decline. See our privacy policy for details.",
        Language::Italian => "Utilizziamo i cookie per personalizzare contenuti e annunci e per analizzare il traffico. Puoi acconsentire al loro utilizzo oppure rifiutare. Dettagli nell'informativa sulla privacy.",
        Language::Swedish => "Vi använder kakor för att anpassa innehåll och annonser och för att analysera vår trafik. Du kan godkänna användningen eller neka. Läs mer i vår integritetspolicy.",
        Language::French => "Nous utilisons des cookies pour personnaliser le contenu et les annonces et pour analyser notre trafic. Vous pouvez consentir à leur utilisation ou refuser. Détails dans la politique de confidentialité.",
        Language::Portuguese => "Utilizamos cookies para personalizar conteúdos e anúncios e para analisar o nosso tráfego. Pode consentir a utilização ou recusar. Detalhes na política de privacidade.",
        Language::Spanish => "Utilizamos cookies para personalizar el contenido y los anuncios y para analizar nuestro tráfico. Puede consentir su uso o rechazarlo. Más detalles en la política de privacidad.",
        Language::Dutch => "Wij gebruiken cookies om inhoud en advertenties te personaliseren en ons verkeer te analyseren. U kunt toestemming geven of weigeren. Details vindt u in de privacyverklaring.",
    }
}

/// Accept-button label per language. These are drawn from BannerClick's
/// multilingual accept-word corpus.
pub fn accept_label(lang: Language) -> &'static str {
    match lang {
        Language::German => "Akzeptieren und weiter",
        Language::English => "Accept all",
        Language::Italian => "Accetta e continua",
        Language::Swedish => "Godkänn alla",
        Language::French => "Tout accepter",
        Language::Portuguese => "Aceitar tudo",
        Language::Spanish => "Aceptar todo",
        Language::Dutch => "Alles accepteren",
    }
}

/// Reject-button label per language.
pub fn reject_label(lang: Language) -> &'static str {
    match lang {
        Language::German => "Ablehnen",
        Language::English => "Reject all",
        Language::Italian => "Rifiuta",
        Language::Swedish => "Neka alla",
        Language::French => "Tout refuser",
        Language::Portuguese => "Rejeitar",
        Language::Spanish => "Rechazar",
        Language::Dutch => "Alles weigeren",
    }
}

/// Settings-button label per language ("options"/"manage my cookies" in
/// the paper's Figure 8 banner screenshot).
pub fn settings_label(lang: Language) -> &'static str {
    match lang {
        Language::German => "Einstellungen verwalten",
        Language::English => "Manage my cookies",
        Language::Italian => "Gestisci le preferenze",
        Language::Swedish => "Hantera inställningar",
        Language::French => "Gérer mes préférences",
        Language::Portuguese => "Gerir preferências",
        Language::Spanish => "Gestionar preferencias",
        Language::Dutch => "Voorkeuren beheren",
    }
}

/// Subscribe-button label per language (contains the subscription words the
/// cookiewall corpus looks for: abo/abonnent/abbonamento/abonne/subscribe).
pub fn subscribe_label(lang: Language) -> &'static str {
    match lang {
        Language::German => "Jetzt Abo abschließen",
        Language::English => "Subscribe now",
        Language::Italian => "Sottoscrivi l'abbonamento",
        Language::Swedish => "Teckna abonnemang",
        Language::French => "S'abonner maintenant",
        Language::Portuguese => "Subscrever agora",
        Language::Spanish => "Suscribirse ahora",
        Language::Dutch => "Nu abonneren",
    }
}

/// Format a price the way sites in this language render it.
///
/// German-style locales put the symbol after a comma-decimal amount
/// (`2,99 €`), English-style locales prefix the symbol (`$3.49`), CHF is
/// conventionally written as a prefix word (`CHF 2.50`). The result
/// writes itself through [`fmt::Display`], so a page renders it straight
/// into its buffer.
pub fn format_price(lang: Language, price: &PriceSpec) -> PriceText<'_> {
    PriceText { lang, price }
}

/// A price in a language's notation; see [`format_price`].
#[derive(Debug, Clone, Copy)]
pub struct PriceText<'a> {
    lang: Language,
    price: &'a PriceSpec,
}

impl fmt::Display for PriceText<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let units = self.price.amount_cents / 100;
        let cents = self.price.amount_cents % 100;
        let symbol = self.price.currency.symbol();
        let comma_locale = !matches!(self.lang, Language::English);
        let sep = if comma_locale { ',' } else { '.' };
        match self.price.currency {
            Currency::Chf => write!(f, "CHF {units}{sep}{cents:02}"),
            Currency::Eur if comma_locale => write!(f, "{units}{sep}{cents:02} {symbol}"),
            _ => write!(f, "{symbol}{units}{sep}{cents:02}"),
        }
    }
}

/// The per-period suffix (`pro Monat`, `per month`, `im Jahr`, …).
pub fn period_phrase(lang: Language, period: Period) -> &'static str {
    match (lang, period) {
        (Language::German, Period::Month) => "pro Monat",
        (Language::German, Period::Year) => "pro Jahr",
        (Language::English, Period::Month) => "per month",
        (Language::English, Period::Year) => "per year",
        (Language::Italian, Period::Month) => "al mese",
        (Language::Italian, Period::Year) => "all'anno",
        (Language::Swedish, Period::Month) => "per månad",
        (Language::Swedish, Period::Year) => "per år",
        (Language::French, Period::Month) => "par mois",
        (Language::French, Period::Year) => "par an",
        (Language::Portuguese, Period::Month) => "por mês",
        (Language::Portuguese, Period::Year) => "por ano",
        (Language::Spanish, Period::Month) => "al mes",
        (Language::Spanish, Period::Year) => "al año",
        (Language::Dutch, Period::Month) => "per maand",
        (Language::Dutch, Period::Year) => "per jaar",
    }
}

/// Copy for a cookiewall: the accept-or-pay pitch, including the price.
/// Contains both halves of the §3 detection corpus — subscription words and
/// a currency/price combination. Like [`format_price`], the copy writes
/// itself through [`fmt::Display`].
pub fn wall_text<'a>(
    lang: Language,
    site_name: &'a str,
    price: &'a PriceSpec,
    smp_name: Option<&'a str>,
) -> WallText<'a> {
    WallText {
        lang,
        site_name,
        price,
        smp_name,
    }
}

/// A cookiewall's copy; see [`wall_text`].
#[derive(Debug, Clone, Copy)]
pub struct WallText<'a> {
    lang: Language,
    site_name: &'a str,
    price: &'a PriceSpec,
    smp_name: Option<&'a str>,
}

impl fmt::Display for WallText<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let site_name = self.site_name;
        let price_str = format_price(self.lang, self.price);
        let period = period_phrase(self.lang, self.price.period);
        match self.lang {
            Language::German => {
                write!(
                    f,
                    "Mit Werbung und Tracking weiterlesen — oder {site_name} werbefrei nutzen: \
                     Das Pur-Abo kostet nur {price_str} {period} und ist jederzeit kündbar."
                )?;
                match self.smp_name {
                    Some(n) => write!(
                        f,
                        " Als {n}-Abonnent erhalten Sie Zugriff auf alle Partnerseiten ohne personalisierte Werbung."
                    ),
                    None => Ok(()),
                }
            }
            Language::English => {
                write!(
                    f,
                    "Continue with advertising and tracking — or enjoy {site_name} ad-free: \
                     subscribe for just {price_str} {period}, cancel anytime."
                )?;
                match self.smp_name {
                    Some(n) => write!(
                        f,
                        " A {n} subscription covers every partner site without personalised ads."
                    ),
                    None => Ok(()),
                }
            }
            Language::Italian => write!(
                f,
                "Continua con pubblicità e tracciamento — oppure leggi {site_name} senza pubblicità: \
                 l'abbonamento costa solo {price_str} {period} ed è disdicibile in ogni momento."
            ),
            Language::Swedish => write!(
                f,
                "Fortsätt med annonser och spårning — eller läs {site_name} reklamfritt: \
                 abonnemanget kostar bara {price_str} {period} och kan sägas upp när som helst."
            ),
            Language::French => write!(
                f,
                "Continuez avec publicité et suivi — ou lisez {site_name} sans publicité : \
                 l'abonnement coûte seulement {price_str} {period}, résiliable à tout moment."
            ),
            Language::Portuguese => write!(
                f,
                "Continue com publicidade e rastreamento — ou leia {site_name} sem anúncios: \
                 a assinatura custa apenas {price_str} {period} e pode ser cancelada a qualquer momento."
            ),
            Language::Spanish => write!(
                f,
                "Continúe con publicidad y seguimiento — o lea {site_name} sin anuncios: \
                 la suscripción cuesta solo {price_str} {period} y puede cancelarse en cualquier momento."
            ),
            Language::Dutch => write!(
                f,
                "Ga verder met advertenties en tracking — of lees {site_name} reclamevrij: \
                 het abonnement kost slechts {price_str} {period} en is maandelijks opzegbaar."
            ),
        }
    }
}

/// Copy for the decoy hard paywall (a *false positive* trap): mentions a
/// subscription price **and** the word "cookies" in passing, but offers no
/// accept-tracking alternative — it is a paywall, not a cookiewall. Like
/// [`wall_text`], the copy writes itself through [`fmt::Display`].
pub fn decoy_paywall_text<'a>(
    lang: Language,
    site_name: &'a str,
    price: &'a PriceSpec,
) -> DecoyText<'a> {
    DecoyText {
        lang,
        site_name,
        price,
    }
}

/// A decoy paywall's copy; see [`decoy_paywall_text`].
#[derive(Debug, Clone, Copy)]
pub struct DecoyText<'a> {
    lang: Language,
    site_name: &'a str,
    price: &'a PriceSpec,
}

impl fmt::Display for DecoyText<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let site_name = self.site_name;
        let price_str = format_price(self.lang, self.price);
        let period = period_phrase(self.lang, self.price.period);
        match self.lang {
            Language::German => write!(
                f,
                "Dieser Artikel ist Teil von {site_name} Plus. Lesen Sie alle Premium-Artikel \
                 für {price_str} {period}. Hinweis: Diese Website verwendet technisch notwendige Cookies."
            ),
            _ => write!(
                f,
                "This article is part of {site_name} Plus. Read all premium stories for \
                 {price_str} {period}. Note: this website uses technically necessary cookies."
            ),
        }
    }
}

/// The adblock-detection interstitial message (hausbau-forum case).
pub fn adblock_message(lang: Language) -> &'static str {
    match lang {
        Language::German => "Bitte deaktivieren Sie Ihren Werbeblocker, um diese Seite zu nutzen.",
        _ => "Please disable your ad blocker to continue using this site.",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Currency, Period, PriceSpec};

    fn eur(cents: u32, period: Period) -> PriceSpec {
        PriceSpec {
            amount_cents: cents,
            currency: Currency::Eur,
            period,
        }
    }

    #[test]
    fn every_language_has_content() {
        for lang in Language::ALL {
            assert!(!body_sentences(lang).is_empty());
            assert!(banner_text(lang).len() > 40);
            assert!(!accept_label(lang).is_empty());
            assert!(!reject_label(lang).is_empty());
            assert!(!subscribe_label(lang).is_empty());
        }
    }

    #[test]
    fn body_text_is_detectable() {
        // The language detector must label generator prose correctly —
        // this is the end-to-end contract between webgen and langid.
        for lang in Language::ALL {
            let text = body_sentences(lang).join(" ");
            let detected = langid::detect(&text).expect("long enough");
            assert_eq!(detected.language, lang, "body text for {lang:?}");
        }
    }

    #[test]
    fn price_formats() {
        assert_eq!(
            format_price(Language::German, &eur(299, Period::Month)).to_string(),
            "2,99 €"
        );
        assert_eq!(
            format_price(Language::English, &eur(299, Period::Month)).to_string(),
            "€2.99"
        );
        let usd = PriceSpec {
            amount_cents: 349,
            currency: Currency::Usd,
            period: Period::Month,
        };
        assert_eq!(format_price(Language::English, &usd).to_string(), "$3.49");
        let chf = PriceSpec {
            amount_cents: 250,
            currency: Currency::Chf,
            period: Period::Month,
        };
        assert_eq!(format_price(Language::German, &chf).to_string(), "CHF 2,50");
        let aud = PriceSpec {
            amount_cents: 499,
            currency: Currency::Aud,
            period: Period::Month,
        };
        assert_eq!(format_price(Language::English, &aud).to_string(), "A$4.99");
    }

    #[test]
    fn wall_text_contains_corpus_signals() {
        let p = eur(299, Period::Month);
        let t = wall_text(Language::German, "beispiel.de", &p, Some("contentpass")).to_string();
        assert!(t.contains("2,99 €"));
        assert!(t.to_lowercase().contains("abo"));
        assert!(t.contains("contentpass"));
        let t = wall_text(Language::English, "example.com", &p, None).to_string();
        assert!(t.contains("ad-free"));
        assert!(t.contains("subscribe"));
    }

    #[test]
    fn banner_text_lacks_price_signals() {
        for lang in Language::ALL {
            let t = banner_text(lang);
            assert!(!t.contains('€') && !t.contains('$') && !t.contains('£'));
            assert!(!t.chars().any(|c| c.is_ascii_digit()));
        }
    }

    #[test]
    fn decoy_has_price_and_cookie_word() {
        let price = eur(499, Period::Month);
        let t = decoy_paywall_text(Language::German, "blatt.de", &price).to_string();
        assert!(t.contains("4,99 €"));
        assert!(t.to_lowercase().contains("cookies"));
    }

    #[test]
    fn yearly_phrases() {
        assert_eq!(period_phrase(Language::German, Period::Year), "pro Jahr");
        assert_eq!(period_phrase(Language::English, Period::Year), "per year");
    }
}
