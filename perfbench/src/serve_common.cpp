#include "serve_common.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <stdexcept>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

namespace perfbench {

namespace net = sesr::serve::net;
using sesr::serve::ExecMode;

// ------------------------------------------------------- workload definitions

ServeDefinition serve_definition(const std::string& workload) {
  ServeDefinition d;
  sesr::serve::ServeOptions& o = d.options;
  o.max_batch = 4;
  o.max_delay_us = 1000;
  o.queue_capacity = 64;
  if (workload == "serve_open_mix") {
    // Four precisions of one network, one worker each; reuse layers on but
    // bypassed (no frame repeats). Admission estimates every request and may
    // degrade it to a cheaper route, but never sheds: with eight requests in
    // flight in the closed phase its depth-scaled estimate passed a 1 s budget
    // on a slow host, and a shed request is a failed one.
    d.precisions.assign(std::begin(kAllPrecisions), std::end(kAllPrecisions));
    o.workers = 1;
    o.mode = ExecMode::kFullFrame;
    o.cache_entries = 256;
    o.video_sessions = 64;
    o.slo.p99_budget_us = 1'000'000;
    o.slo.allow_shed = false;
  } else if (workload == "video_reuse") {
    // One fp32 route on two workers; frames of 128x256 and up tile at 64 px.
    d.precisions = {InferencePrecision::kFp32};
    o.workers = 2;
    o.mode = ExecMode::kAuto;
    o.tiling.tile_h = 64;
    o.tiling.tile_w = 64;
    o.tiling.halo = -1;
    o.cache_entries = 64;
    o.video_sessions = 64;
  } else {
    throw std::invalid_argument("no server definition for workload '" + workload + "'");
  }
  return d;
}

sesr::serve::RouteKey route_key(InferencePrecision p) { return {"m5", 2, p}; }

std::string route_name(InferencePrecision p) { return sesr::serve::route_string(route_key(p)); }

sesr::serve::NetworkRegistry make_registry(const ServeDefinition& definition,
                                           const SesrInference& base) {
  sesr::serve::NetworkRegistry registry;
  for (InferencePrecision p : definition.precisions) registry.add(route_key(p), base);
  return registry;
}

// ------------------------------------------------------------------ hashing

Hash128 hash_bytes(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  Hash128 h{1469598103934665603ULL, 0x243F6A8885A308D3ULL};
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p + i, 8);
    for (int k = 0; k < 8; ++k) h.a = (h.a ^ ((word >> (8 * k)) & 0xFF)) * 1099511628211ULL;
    h.b = (h.b ^ word) * 0x9E3779B97F4A7C15ULL;
    h.b ^= h.b >> 29;
  }
  for (; i < bytes; ++i) {
    h.a = (h.a ^ p[i]) * 1099511628211ULL;
    h.b = (h.b ^ p[i]) * 0x9E3779B97F4A7C15ULL;
  }
  h.b ^= bytes;
  return h;
}

FramePool::FramePool(std::uint64_t seed, std::int64_t texture_side) : seed_(seed) {
  for (std::uint64_t i = 0; i < 4; ++i) {
    textures_.push_back(seeded_frame(derive_seed(seed, 7000 + i), texture_side, texture_side));
  }
}

Tensor FramePool::frame(std::uint64_t index, std::int64_t h, std::int64_t w) const {
  const Tensor& tex = textures_[index % textures_.size()];
  const std::int64_t side = tex.shape().h();
  const std::uint64_t r = derive_seed(seed_, 9000 + index);
  const auto y0 = static_cast<std::int64_t>(r % static_cast<std::uint64_t>(side - h + 1));
  const auto x0 = static_cast<std::int64_t>((r >> 24) % static_cast<std::uint64_t>(side - w + 1));
  Tensor out(1, h, w, 1);
  for (std::int64_t y = 0; y < h; ++y) {
    std::memcpy(out.raw() + y * w, tex.raw() + (y0 + y) * side + x0,
                static_cast<std::size_t>(w) * sizeof(float));
  }
  // 0.5 + k * 2^-24 is exact and distinct for every k < 2^23.
  out.raw()[0] = 0.5F + static_cast<float>(index & 0x7FFFFF) * 0x1p-24F;
  return out;
}

// ----------------------------------------------------------- server process

ServerProcess::ServerProcess(const std::string& exe, const std::string& workload) {
  int in_pipe[2];
  int out_pipe[2];
  if (::pipe2(in_pipe, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    throw std::runtime_error("pipe failed");
  }
  const char* argv[] = {exe.c_str(), "serve", "--workload", workload.c_str(), nullptr};
  spawned_ = Clock::now();
  pid_ = ::fork();
  if (pid_ == 0) {
    ::dup2(in_pipe[0], 0);
    ::dup2(out_pipe[1], 1);
    ::execv(exe.c_str(), const_cast<char* const*>(argv));
    ::_exit(127);
  }
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  to_child_ = in_pipe[1];
  from_child_ = out_pipe[0];
  if (pid_ < 0) {
    ::close(to_child_);
    ::close(from_child_);
    throw std::runtime_error("fork failed");
  }
  const std::string line = read_line();
  if (line.rfind("ready ", 0) != 0) {
    stop();
    throw std::runtime_error("server process did not start: '" + line + "'");
  }
  port_ = static_cast<std::uint16_t>(std::stoul(line.substr(6)));
}

ServerProcess::~ServerProcess() {
  try {
    stop();
  } catch (...) {
    // stop() already reaped or killed the child; nothing else to release.
  }
}

double ServerProcess::peak_rss_mb() const {
  const auto it = final_.find("rss_mb");
  return it != final_.end() ? it->second : 0.0;
}

std::string ServerProcess::read_line() {
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(120);
  for (;;) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return line;
    }
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
    if (left.count() <= 0) return "";
    pollfd p{from_child_, POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(left.count())) <= 0) continue;
    char buf[4096];
    const ssize_t n = ::read(from_child_, buf, sizeof(buf));
    if (n <= 0) return "";
    buffer_.append(buf, static_cast<std::size_t>(n));
  }
}

std::map<std::string, double> ServerProcess::read_stats() {
  std::map<std::string, double> out;
  for (;;) {
    const std::string line = read_line();
    if (line.empty()) return out;
    if (line.rfind("stats ", 0) != 0) continue;
    std::size_t pos = 6;
    while (pos < line.size()) {
      const std::size_t end = std::min(line.find(' ', pos), line.size());
      const std::string kv = line.substr(pos, end - pos);
      const std::size_t eq = kv.rfind('=');
      if (eq != std::string::npos) {
        out[kv.substr(0, eq)] = std::strtod(kv.c_str() + eq + 1, nullptr);
      }
      pos = end + 1;
    }
    return out;
  }
}

std::map<std::string, double> ServerProcess::stop() {
  if (stopped_) return final_;
  stopped_ = true;
  if (pid_ > 0) {
    if (::write(to_child_, "quit\n", 5) == 5) final_ = read_stats();
    ::close(to_child_);
    int status = 0;
    const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  } else {
    ::close(to_child_);
  }
  ::close(from_child_);
  return final_;
}

// ------------------------------------------------------------ load generator

int LoadGen::connect(bool http) {
  auto c = std::make_unique<Conn>();
  c->fd = net::connect_tcp("127.0.0.1", port_);
  net::set_nodelay(c->fd);
  c->http = http;
  conns_.push_back(std::move(c));
  return static_cast<int>(conns_.size()) - 1;
}

void LoadGen::send_binary(int conn, std::uint64_t tag, const std::string& route,
                          const Tensor& frame, std::uint64_t session_id, std::uint32_t seq) {
  Conn& c = *conns_[static_cast<std::size_t>(conn)];
  net::WireRequest req;
  req.id = c.next_id++;
  req.route = route;
  req.h = frame.shape().h();
  req.w = frame.shape().w();
  req.pixels = net::frame_to_pixels(frame);
  if (session_id != 0) {
    req.video = true;
    req.session_id = session_id;
    req.frame_seq = seq;
  }
  const std::vector<std::uint8_t> bytes = net::encode_request(req);
  c.by_id[req.id] = Pending{tag, Clock::now()};
  net::send_all(c.fd, bytes.data(), bytes.size());
}

std::string http_upscale_request(const std::string& route, const Tensor& frame) {
  std::string encoded;
  for (char ch : route) encoded += ch == ':' ? std::string("%3A") : std::string(1, ch);
  const std::size_t body = static_cast<std::size_t>(frame.numel()) * sizeof(float);
  std::string req = "POST /v1/upscale?route=" + encoded + "&h=" +
                    std::to_string(frame.shape().h()) + "&w=" + std::to_string(frame.shape().w()) +
                    " HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/octet-stream\r\n"
                    "Content-Length: " +
                    std::to_string(body) + "\r\n\r\n";
  const std::size_t head = req.size();
  req.resize(head + body);
  std::memcpy(req.data() + head, frame.raw(), body);
  return req;
}

void LoadGen::send_http_upscale(int conn, std::uint64_t tag, const std::string& route,
                                const Tensor& frame) {
  Conn& c = *conns_[static_cast<std::size_t>(conn)];
  const std::string req = http_upscale_request(route, frame);
  c.fifo.push_back(Pending{tag, Clock::now()});
  net::send_all(c.fd, reinterpret_cast<const std::uint8_t*>(req.data()), req.size());
}

void LoadGen::send_http_get(int conn, std::uint64_t tag, const std::string& path) {
  Conn& c = *conns_[static_cast<std::size_t>(conn)];
  const std::string req = "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  c.fifo.push_back(Pending{tag, Clock::now()});
  net::send_all(c.fd, reinterpret_cast<const std::uint8_t*>(req.data()), req.size());
}

std::size_t LoadGen::inflight(int conn) const {
  const Conn& c = *conns_[static_cast<std::size_t>(conn)];
  return c.by_id.size() + c.fifo.size();
}

std::size_t LoadGen::inflight() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < conns_.size(); ++i) n += inflight(static_cast<int>(i));
  return n;
}

std::vector<Completion> LoadGen::poll(Clock::duration timeout) {
  std::vector<pollfd> fds;
  std::vector<int> index;
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i]->closed) continue;
    fds.push_back(pollfd{conns_[i]->fd.get(), POLLIN, 0});
    index.push_back(static_cast<int>(i));
  }
  std::vector<Completion> out;
  if (fds.empty()) return out;
  const auto ns = std::max<std::int64_t>(
      0, std::chrono::duration_cast<std::chrono::nanoseconds>(timeout).count());
  const timespec ts{static_cast<time_t>(ns / 1'000'000'000), static_cast<long>(ns % 1'000'000'000)};
  if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return out;
  for (std::size_t k = 0; k < fds.size(); ++k) {
    if (fds[k].revents != 0) read_conn(index[k], out);
  }
  return out;
}

void LoadGen::read_conn(int index, std::vector<Completion>& out) {
  Conn& c = *conns_[static_cast<std::size_t>(index)];
  static thread_local std::vector<std::uint8_t> buf(1 << 18);
  bool closed = false;
  for (;;) {
    const ssize_t n = ::recv(c.fd.get(), buf.data(), buf.size(), MSG_DONTWAIT);
    if (n > 0) {
      if (c.http) {
        c.http_buf.insert(c.http_buf.end(), buf.data(), buf.data() + n);
      } else {
        c.reader.feed(buf.data(), static_cast<std::size_t>(n));
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    closed = true;
    break;
  }
  auto complete = [&](const Pending& p, Completion done) {
    done.tag = p.tag;
    done.sent = p.sent;
    done.done = Clock::now();
    done.connection = index;
    out.push_back(std::move(done));
  };
  if (c.http) {
    while (parse_http(c, index, out)) {
    }
  } else {
    while (std::optional<std::vector<std::uint8_t>> payload = c.reader.next()) {
      std::optional<net::WireResponse> r = net::decode_response(*payload);
      if (!r) {
        closed = true;
        break;
      }
      const auto it = c.by_id.find(r->id);
      if (it == c.by_id.end()) continue;
      Completion done;
      done.ok = r->status == net::Status::kOk;
      done.served_route = r->route;
      done.hash = hash_bytes(r->pixels.data(), r->pixels.size() * sizeof(float));
      done.error = r->message;
      const Pending p = it->second;
      c.by_id.erase(it);
      complete(p, std::move(done));
    }
    if (c.reader.poisoned()) closed = true;
  }
  if (closed) {
    c.closed = true;
    Completion lost;
    lost.error = "connection closed";
    for (const auto& [id, p] : c.by_id) complete(p, lost);
    for (const Pending& p : c.fifo) complete(p, lost);
    c.by_id.clear();
    c.fifo.clear();
  }
}

bool LoadGen::parse_http(Conn& c, int index, std::vector<Completion>& out) {
  static const char kEnd[] = "\r\n\r\n";
  const auto end = std::search(c.http_buf.begin(), c.http_buf.end(), kEnd, kEnd + 4);
  if (end == c.http_buf.end() || c.fifo.empty()) return false;
  const std::string head(c.http_buf.begin(), end);
  const std::size_t body_at = static_cast<std::size_t>(end - c.http_buf.begin()) + 4;
  std::map<std::string, std::string> headers;
  std::size_t pos = head.find("\r\n");
  const std::string status_line = head.substr(0, pos);
  while (pos != std::string::npos && pos + 2 < head.size()) {
    const std::size_t next = head.find("\r\n", pos + 2);
    const std::string line = head.substr(pos + 2, next == std::string::npos ? std::string::npos
                                                                             : next - pos - 2);
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos) {
      std::string name = line.substr(0, colon);
      std::transform(name.begin(), name.end(), name.begin(),
                     [](unsigned char ch) { return static_cast<char>(std::tolower(ch)); });
      headers[name] = line.substr(line.find_first_not_of(' ', colon + 1));
    }
    pos = next;
  }
  const std::size_t length = std::strtoull(headers["content-length"].c_str(), nullptr, 10);
  if (c.http_buf.size() < body_at + length) return false;
  Completion done;
  const int code = status_line.size() > 12 ? std::atoi(status_line.c_str() + 9) : 0;
  done.ok = code == 200;
  done.served_route = headers["x-sesr-route"];
  done.hash = hash_bytes(c.http_buf.data() + body_at, length);
  if (!done.ok) done.error = status_line;
  const Pending p = c.fifo.front();
  c.fifo.pop_front();
  c.http_buf.erase(c.http_buf.begin(),
                   c.http_buf.begin() + static_cast<std::ptrdiff_t>(body_at + length));
  done.tag = p.tag;
  done.sent = p.sent;
  done.done = Clock::now();
  done.connection = index;
  out.push_back(std::move(done));
  return true;
}

}  // namespace perfbench
