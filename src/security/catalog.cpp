#include "security/catalog.hpp"

#include "security/cvss.hpp"

#include <algorithm>

namespace cprisk::security {

using model::Component;
using model::ElementType;

double Vulnerability::effective_cvss() const {
    if (!cvss_vector.empty()) {
        auto computed = cvss_base_score(cvss_vector);
        if (computed.ok()) return computed.value();
    }
    return cvss;
}

qual::Level Vulnerability::severity_level() const {
    const double score = effective_cvss();
    if (score < 2.0) return qual::Level::VeryLow;
    if (score < 4.0) return qual::Level::Low;
    if (score < 6.0) return qual::Level::Medium;
    if (score < 8.0) return qual::Level::High;
    return qual::Level::VeryHigh;
}

void SecurityCatalog::add_weakness(Weakness weakness) {
    weaknesses_.push_back(std::move(weakness));
}

void SecurityCatalog::add_vulnerability(Vulnerability vulnerability) {
    vulnerabilities_.push_back(std::move(vulnerability));
}

void SecurityCatalog::add_pattern(AttackPattern pattern) {
    patterns_.push_back(std::move(pattern));
}

const Weakness* SecurityCatalog::find_weakness(std::string_view id) const {
    for (const Weakness& w : weaknesses_) {
        if (w.id == id) return &w;
    }
    return nullptr;
}

const Vulnerability* SecurityCatalog::find_vulnerability(std::string_view id) const {
    for (const Vulnerability& v : vulnerabilities_) {
        if (v.id == id) return &v;
    }
    return nullptr;
}

const AttackPattern* SecurityCatalog::find_pattern(std::string_view id) const {
    for (const AttackPattern& p : patterns_) {
        if (p.id == id) return &p;
    }
    return nullptr;
}

std::vector<const Weakness*> SecurityCatalog::weaknesses_for(const Component& component) const {
    std::vector<const Weakness*> out;
    for (const Weakness& w : weaknesses_) {
        if (std::find(w.applies_to.begin(), w.applies_to.end(), component.type) !=
            w.applies_to.end()) {
            out.push_back(&w);
        }
    }
    return out;
}

std::vector<const Vulnerability*> SecurityCatalog::vulnerabilities_for(
    const Component& component) const {
    std::vector<const Vulnerability*> out;
    auto template_it = component.properties.find("template");
    const std::string component_template =
        template_it == component.properties.end() ? "" : template_it->second;
    for (const Vulnerability& v : vulnerabilities_) {
        if (!v.affected_template.empty() && v.affected_template != component_template) continue;
        if (!v.affected_version.empty() && v.affected_version != component.version) continue;
        // The weakness must be applicable to the component's type when the
        // vulnerability is not template-pinned.
        if (v.affected_template.empty()) {
            const Weakness* weakness = find_weakness(v.weakness_id);
            if (weakness == nullptr) continue;
            if (std::find(weakness->applies_to.begin(), weakness->applies_to.end(),
                          component.type) == weakness->applies_to.end()) {
                continue;
            }
        }
        out.push_back(&v);
    }
    return out;
}

std::vector<const AttackPattern*> SecurityCatalog::patterns_for(
    const Component& component) const {
    std::vector<const AttackPattern*> out;
    const auto applicable = weaknesses_for(component);
    for (const AttackPattern& p : patterns_) {
        const bool relevant = std::any_of(
            p.exploits_weaknesses.begin(), p.exploits_weaknesses.end(),
            [&](const std::string& weakness_id) {
                return std::any_of(applicable.begin(), applicable.end(),
                                   [&](const Weakness* w) { return w->id == weakness_id; });
            });
        if (relevant) out.push_back(&p);
    }
    return out;
}

SecurityCatalog SecurityCatalog::standard_ics() {
    SecurityCatalog catalog;

    catalog.add_weakness(Weakness{
        "W-PHISH", "Susceptibility to Phishing",
        {ElementType::ApplicationComponent, ElementType::Node},
        "User-facing software through which social-engineering payloads arrive."});
    catalog.add_weakness(Weakness{
        "W-RCE", "Remote Code Execution via Unpatched Service",
        {ElementType::Node, ElementType::SystemSoftware, ElementType::ApplicationComponent},
        "Network-reachable service running exploitable code."});
    catalog.add_weakness(Weakness{
        "W-AUTH", "Missing/Weak Authentication on Control Interface",
        {ElementType::Controller, ElementType::HumanMachineInterface, ElementType::Device},
        "Control-plane endpoints accepting unauthenticated commands."});
    catalog.add_weakness(Weakness{
        "W-PROTO", "Insecure Fieldbus Protocol",
        {ElementType::Controller, ElementType::Actuator, ElementType::Sensor,
         ElementType::CommunicationNetwork},
        "Legacy OT protocols without integrity protection."});
    catalog.add_weakness(Weakness{
        "W-FW", "Unsigned Firmware Update",
        {ElementType::Device, ElementType::Controller, ElementType::Actuator,
         ElementType::Sensor},
        "Firmware accepted without signature verification."});

    catalog.add_vulnerability(Vulnerability{
        "V-MAIL-1", "W-PHISH", "email_client", "", 6.5, "phishing_link_opened",
        "Spam filter bypass allows crafted links to reach users.", ""});
    catalog.add_vulnerability(Vulnerability{
        "V-BROWSER-1", "W-RCE", "web_browser", "98.0", 8.8, "malware_download",
        "Drive-by download in outdated browser version.",
        "CVSS:3.1/AV:N/AC:L/PR:N/UI:R/S:U/C:H/I:H/A:H"});  // 8.8
    catalog.add_vulnerability(Vulnerability{
        "V-WS-1", "W-RCE", "engineering_workstation", "", 9.1, "infected",
        "SMB service exploitable for remote code execution.", ""});
    catalog.add_vulnerability(Vulnerability{
        "V-PLC-1", "W-AUTH", "plc", "", 9.8, "logic_tampered",
        "Ladder logic writable without authentication.",
        "CVSS:3.1/AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:H/A:H"});  // 9.8
    catalog.add_vulnerability(Vulnerability{
        "V-NET-1", "W-PROTO", "control_network", "", 7.4, "intrusion",
        "Unencrypted fieldbus allows command injection from the network.", ""});
    catalog.add_vulnerability(Vulnerability{
        "V-HMI-1", "W-AUTH", "hmi", "", 6.1, "no_signal",
        "Display server crashable by malformed packets (alarm suppression).", ""});
    catalog.add_vulnerability(Vulnerability{
        "V-VCTRL-1", "W-PROTO", "valve_controller", "", 7.0, "wrong_command",
        "Spoofed setpoint frames accepted by the valve controller.", ""});

    catalog.add_pattern(AttackPattern{
        "P-SPEARPHISH", "Spearphishing Attachment", {"W-PHISH"},
        qual::Level::High, qual::Level::Medium});
    catalog.add_pattern(AttackPattern{
        "P-DRIVEBY", "Drive-by Compromise", {"W-PHISH", "W-RCE"},
        qual::Level::Medium, qual::Level::High});
    catalog.add_pattern(AttackPattern{
        "P-REMOTE-EXPLOIT", "Exploitation of Remote Services", {"W-RCE", "W-AUTH"},
        qual::Level::Medium, qual::Level::VeryHigh});
    catalog.add_pattern(AttackPattern{
        "P-CMD-INJECT", "Command Injection over Fieldbus", {"W-PROTO", "W-AUTH"},
        qual::Level::Low, qual::Level::VeryHigh});
    catalog.add_pattern(AttackPattern{
        "P-FW-TROJAN", "Malicious Firmware Update", {"W-FW"},
        qual::Level::VeryLow, qual::Level::VeryHigh});

    return catalog;
}

}  // namespace cprisk::security
