// Chaos sweep over the daemon's fault seams (docs/serve.md): for every
// registered serve.* site — plus the solver/grounder seams that make
// request execution itself fail — concurrent clients hammer a live daemon
// while the site is armed and a drain (graceful or hard) lands mid-flight.
// Invariants: the daemon never crashes or deadlocks, drains to zero
// in-flight requests, removes its socket, and every reply any client ever
// receives is one well-formed JSON object with the echoed id (a clean
// connection close is the only other allowed outcome).
#include <gtest/gtest.h>

#include <unistd.h>

#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.hpp"
#include "common/json.hpp"
#include "common/strings.hpp"
#include "line_client.hpp"
#include "serve/server.hpp"

namespace cprisk::serve {
namespace {

struct ChaosCase {
    std::string site;  ///< fault site armed for the round ("" = none)
    bool hard;         ///< escalate the mid-flight drain to a hard cancel
};

std::string case_name(const ::testing::TestParamInfo<ChaosCase>& info) {
    std::string name = info.param.site.empty() ? "no_fault" : info.param.site;
    for (char& c : name) {
        if (c == '.') c = '_';
    }
    return name + (info.param.hard ? "_hard" : "_graceful");
}

std::string copy_bundle(const std::string& name) {
    const std::string source = std::string(CPRISK_SOURCE_DIR) + "/examples/models/watertank.cpm";
    const std::string target = ::testing::TempDir() + name;
    std::ifstream in(source);
    std::ostringstream text;
    text << in.rdbuf();
    std::ofstream out(target);
    out << text.str();
    return target;
}

class ServeChaosTest : public ::testing::TestWithParam<ChaosCase> {
protected:
    void SetUp() override { fault::reset(); }
    void TearDown() override { fault::reset(); }
};

TEST_P(ServeChaosTest, NeverCrashesAndEveryReplyIsWellFormed) {
    const ChaosCase& chaos = GetParam();

    ServeOptions options;
    options.socket_path = ::testing::TempDir() + "srv_chaos.sock";
    ::unlink(options.socket_path.c_str());
    options.executors = 2;
    options.max_inflight = 4;
    options.hot_models = 1;  // two model paths force evictions every swap
    options.drain_ms = chaos.hard ? 0 : 10000;
    options.allow_fault_injection = true;
    auto server = Server::start(options);
    ASSERT_TRUE(server.ok()) << server.error();

    // The two bundles alternate per request so the serve.evict seam is
    // exercised; countdown 3 lets some traffic through before the fault.
    const std::string model_a = copy_bundle("chaos_a.cpm");
    const std::string model_b = copy_bundle("chaos_b.cpm");
    if (!chaos.site.empty()) fault::arm(chaos.site, 3);

    constexpr int kClients = 3;
    constexpr int kRequests = 4;
    std::mutex replies_mutex;
    std::vector<std::string> replies;  // every non-empty line any client read
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            LineClient client;
            if (!client.connect_to(options.socket_path)) return;  // accept fault / drain
            int expected = 0;
            for (int r = 0; r < kRequests; ++r) {
                const std::string id = numbered("c", c) + numbered("r", r);
                std::string line;
                if (r % kRequests == 1) {
                    line = R"({"id":")" + id + R"(","op":"ping"})";
                } else if (r % kRequests == 3) {
                    line = R"({"id":")" + id + R"(","op":"metrics"})";
                } else {
                    const std::string& model = (c + r) % 2 == 0 ? model_a : model_b;
                    line = R"({"id":")" + id + R"(","op":"assess","model":")" + model +
                           R"(","config":{"horizon":4}})";
                }
                if (!client.send_line(line)) break;  // daemon hung up: allowed
                ++expected;
            }
            for (int r = 0; r < expected; ++r) {
                const std::string reply = client.read_line();
                if (reply.empty()) break;  // clean close: allowed
                std::lock_guard<std::mutex> lock(replies_mutex);
                replies.push_back(reply);
            }
        });
    }

    // The drain lands while clients are still in flight — the SIGTERM path
    // without the process machinery (cmd_serve wires signals to the same
    // begin_drain calls).
    ::usleep(20 * 1000);
    server.value()->begin_drain(false);
    if (chaos.hard) server.value()->begin_drain(true);
    for (auto& client : clients) client.join();
    server.value()->wait();

    EXPECT_EQ(server.value()->inflight(), 0u);
    LineClient probe;
    EXPECT_FALSE(probe.connect_to(options.socket_path));  // socket removed

    // Every reply that reached any client is one well-formed JSON object
    // with an id and an ok flag; failures carry a structured error code.
    for (const std::string& line : replies) {
        auto parsed = json::parse(line);
        ASSERT_TRUE(parsed.ok()) << "unparseable reply: " << line;
        const json::Value& reply = parsed.value();
        ASSERT_TRUE(reply.is_object()) << line;
        EXPECT_NE(reply.get("ok"), nullptr) << line;
        if (!reply.get_bool("ok", true)) {
            const json::Value* error = reply.get("error");
            ASSERT_NE(error, nullptr) << line;
            EXPECT_FALSE(error->get_string("code").empty()) << line;
        }
    }

    std::remove(model_a.c_str());
    std::remove(model_b.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Sites, ServeChaosTest,
    ::testing::Values(ChaosCase{"", false}, ChaosCase{"", true},
                      ChaosCase{"serve.accept", false}, ChaosCase{"serve.accept", true},
                      ChaosCase{"serve.read", false}, ChaosCase{"serve.read", true},
                      ChaosCase{"serve.dispatch", false}, ChaosCase{"serve.dispatch", true},
                      ChaosCase{"serve.evict", false}, ChaosCase{"serve.evict", true},
                      ChaosCase{"serve.drain", false}, ChaosCase{"serve.drain", true},
                      ChaosCase{"asp.grounder.ground", false},
                      ChaosCase{"asp.solver.solve", true}),
    case_name);

}  // namespace
}  // namespace cprisk::serve
