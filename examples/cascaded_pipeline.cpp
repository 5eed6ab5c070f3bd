// Cascaded authorization (§3.4, Fig 4): a client hands work to a
// translation service, which must fetch the client's file from a storage
// service — parties that "do not completely trust one another".
//
// Shows both cascade flavors (bearer: key-signed, anonymous; delegate:
// identity-signed, auditable) and contrasts verification cost with
// Sollins' cascaded authentication, where the end-server must contact the
// authentication server.
#include <cstdio>

#include "authz/capability.hpp"
#include "baseline/sollins.hpp"
#include "pki/name_server.hpp"
#include "server/app_client.hpp"
#include "server/file_server.hpp"

using namespace rproxy;

namespace {
class Resolver final : public core::KeyResolver {
 public:
  explicit Resolver(const pki::NameServer& ns) : ns_(&ns) {}
  util::Result<crypto::VerifyKey> resolve(
      const PrincipalName& name) const override {
    return ns_->key_of(name);
  }
 private:
  const pki::NameServer* ns_;
};
}  // namespace

int main() {
  util::SimClock clock;
  net::SimNet net(clock);
  pki::NameServer name_server("name-server", clock);
  net.attach("name-server", name_server);
  Resolver resolver(name_server);

  const crypto::SigningKeyPair client_key =
      crypto::SigningKeyPair::generate();
  const crypto::SigningKeyPair translator_key =
      crypto::SigningKeyPair::generate();
  name_server.register_key("client", client_key.public_key());
  name_server.register_key("translator", translator_key.public_key());

  server::FileServer::Config sc;
  sc.name = "storage";
  sc.resolver = &resolver;
  sc.pk_root = name_server.root_key();
  sc.clock = &clock;
  server::FileServer storage(sc);
  storage.put_file("/novel.txt", "Call me Ishmael...");
  storage.acl().add(authz::AclEntry{{"client"}, {}, {}, {}});
  net.attach("storage", storage);

  // --- Bearer cascade: client -> translator -> fetcher. -------------------
  // The client grants the translator read access to the one file; the
  // translator passes it on to its fetch worker with a shorter lifetime.
  // Each link is signed with the previous proxy key (Fig 4).
  const core::Proxy to_translator = authz::make_capability_pk(
      "client", client_key, "storage",
      {core::ObjectRights{"/novel.txt", {"read"}}}, clock.now(),
      util::kHour);
  auto to_fetcher = core::extend_bearer(to_translator, {}, clock.now(),
                                        10 * util::kMinute);
  std::printf("bearer cascade: client -> translator -> fetcher (chain of "
              "%zu certificates)\n",
              to_fetcher.value().chain.certs.size());

  net.reset_stats();
  server::AppClient fetcher(net, clock, "fetch-worker");
  auto fetched = fetcher.invoke_with_proxy("storage", to_fetcher.value(),
                                           "read", "/novel.txt");
  std::printf("fetch-worker reads /novel.txt -> %s\n",
              fetched.is_ok() ? "ok" : fetched.status().to_string().c_str());
  std::printf("  messages used: %llu (all client<->storage; verification "
              "was offline)\n",
              static_cast<unsigned long long>(net.stats().messages));

  // --- Delegate cascade: identity-signed, leaves an audit trail. ----------
  core::RestrictionSet named;
  named.add(core::GranteeRestriction{{"translator"}, 1});
  named.add(core::IssuedForRestriction{{"storage"}});
  named.add(core::AuthorizedRestriction{
      {core::ObjectRights{"/novel.txt", {"read"}}}});
  const core::Proxy delegate_root =
      core::grant_pk_proxy("client", client_key, named, clock.now(),
                           util::kHour);
  auto audited = core::extend_delegate(delegate_root, "translator",
                                       translator_key, {}, clock.now(),
                                       util::kHour);
  auto audited_read = fetcher.invoke_with_proxy("storage", audited.value(),
                                                "read", "/novel.txt");
  std::printf("\ndelegate cascade read -> %s\n",
              audited_read.status().to_string().c_str());
  const server::AuditRecord record = storage.audit().recent().back();
  std::printf("  audit record: authority=%s via=[", record.authority.c_str());
  for (const PrincipalName& via : record.via) std::printf("%s ", via.c_str());
  std::printf("] — the intermediate is identified (§3.4)\n");

  // --- Sollins baseline: same pipeline, but the storage server must ask
  // the authentication server to verify the passport. ----------------------
  baseline::SollinsAuthServer sollins_auth("sollins-auth", clock);
  net.attach("sollins-auth", sollins_auth);
  const crypto::SymmetricKey c_secret =
      sollins_auth.register_principal("client");
  const crypto::SymmetricKey t_secret =
      sollins_auth.register_principal("translator");

  baseline::SollinsPassport passport = baseline::sollins_create(
      "client", c_secret, "translator", {}, clock.now(), util::kHour);
  passport = baseline::sollins_extend(passport, "translator", t_secret,
                                      "fetch-worker", {}, clock.now(),
                                      util::kHour);
  net.reset_stats();
  auto verdict =
      baseline::sollins_verify_remote(net, "storage", "sollins-auth",
                                      passport);
  std::printf("\nSollins baseline: storage verifies the passport -> %s\n",
              verdict.is_ok() && verdict.value().valid ? "valid" : "invalid");
  std::printf("  but it cost %llu extra messages to the authentication "
              "server — per request\n",
              static_cast<unsigned long long>(net.stats().messages));
  return 0;
}
