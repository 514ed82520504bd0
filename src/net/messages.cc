#include "net/messages.h"

#include <utility>

namespace comparesets {

namespace {

// Last valid StatusCode value; decoded codes beyond it are garbage.
constexpr uint16_t kMaxStatusCode =
    static_cast<uint16_t>(StatusCode::kUnavailable);

// Collection caps: no legitimate message approaches them, and they stop
// a corrupted count prefix from driving a multi-gigabyte reserve.
constexpr uint32_t kMaxListElements = 1u << 20;

Result<uint32_t> ReadCount(WireReader* reader, const char* what) {
  COMPARESETS_ASSIGN_OR_RETURN(uint32_t count, reader->ReadU32());
  if (count > kMaxListElements) {
    return Status::ParseError(std::string("implausible ") + what +
                              " count: " + std::to_string(count));
  }
  return count;
}

// QualityTier travels as its u8 value; anything past the last tier is
// garbage, caught here so a corrupted byte can never smuggle an
// out-of-range enum into the engine.
Result<QualityTier> ReadTier(WireReader* reader) {
  COMPARESETS_ASSIGN_OR_RETURN(uint8_t raw, reader->ReadU8());
  if (raw > static_cast<uint8_t>(QualityTier::kExact)) {
    return Status::ParseError("unknown quality tier on the wire: " +
                              std::to_string(raw));
  }
  return static_cast<QualityTier>(raw);
}

// RequestPriority travels as its u8 value, range-checked like the
// quality tier so a corrupted byte cannot smuggle an out-of-range
// scheduling class into the engine.
Result<RequestPriority> ReadPriority(WireReader* reader) {
  COMPARESETS_ASSIGN_OR_RETURN(uint8_t raw, reader->ReadU8());
  if (raw > static_cast<uint8_t>(RequestPriority::kBatch)) {
    return Status::ParseError("unknown request priority on the wire: " +
                              std::to_string(raw));
  }
  return static_cast<RequestPriority>(raw);
}

void EncodeSelectorOptionsTo(const SelectorOptions& options,
                             WireWriter* writer) {
  writer->WriteU64(options.m);
  writer->WriteDouble(options.lambda);
  writer->WriteDouble(options.mu);
  writer->WriteU64(options.seed);
  writer->WriteI32(options.extra_sync_rounds);
  writer->WriteBool(options.dense_reference_solver);
  writer->WriteU8(static_cast<uint8_t>(options.min_tier));
  writer->WriteU64(options.sample_threshold);
  writer->WriteU64(options.sample_size);
}

Status DecodeSelectorOptionsFrom(WireReader* reader,
                                 SelectorOptions* options) {
  COMPARESETS_ASSIGN_OR_RETURN(uint64_t m, reader->ReadU64());
  options->m = static_cast<size_t>(m);
  COMPARESETS_ASSIGN_OR_RETURN(options->lambda, reader->ReadDouble());
  COMPARESETS_ASSIGN_OR_RETURN(options->mu, reader->ReadDouble());
  COMPARESETS_ASSIGN_OR_RETURN(options->seed, reader->ReadU64());
  COMPARESETS_ASSIGN_OR_RETURN(options->extra_sync_rounds, reader->ReadI32());
  COMPARESETS_ASSIGN_OR_RETURN(options->dense_reference_solver,
                               reader->ReadBool());
  COMPARESETS_ASSIGN_OR_RETURN(options->min_tier, ReadTier(reader));
  COMPARESETS_ASSIGN_OR_RETURN(uint64_t sample_threshold, reader->ReadU64());
  options->sample_threshold = static_cast<size_t>(sample_threshold);
  COMPARESETS_ASSIGN_OR_RETURN(uint64_t sample_size, reader->ReadU64());
  options->sample_size = static_cast<size_t>(sample_size);
  return Status::OK();
}

void EncodeRougeTo(const RougeScore& score, WireWriter* writer) {
  writer->WriteDouble(score.precision);
  writer->WriteDouble(score.recall);
  writer->WriteDouble(score.f1);
}

Status DecodeRougeFrom(WireReader* reader, RougeScore* score) {
  COMPARESETS_ASSIGN_OR_RETURN(score->precision, reader->ReadDouble());
  COMPARESETS_ASSIGN_OR_RETURN(score->recall, reader->ReadDouble());
  COMPARESETS_ASSIGN_OR_RETURN(score->f1, reader->ReadDouble());
  return Status::OK();
}

void EncodeTripleTo(const RougeTriple& triple, WireWriter* writer) {
  EncodeRougeTo(triple.rouge1, writer);
  EncodeRougeTo(triple.rouge2, writer);
  EncodeRougeTo(triple.rougeL, writer);
}

Status DecodeTripleFrom(WireReader* reader, RougeTriple* triple) {
  COMPARESETS_RETURN_NOT_OK(DecodeRougeFrom(reader, &triple->rouge1));
  COMPARESETS_RETURN_NOT_OK(DecodeRougeFrom(reader, &triple->rouge2));
  COMPARESETS_RETURN_NOT_OK(DecodeRougeFrom(reader, &triple->rougeL));
  return Status::OK();
}

void EncodeTraceTo(const RequestTrace& trace, WireWriter* writer) {
  writer->WriteU64(trace.request_id);
  writer->WriteU64(trace.shard_id);
  writer->WriteU64(trace.corpus_epoch);
  writer->WriteU64(trace.ingest_records);
  writer->WriteString(trace.target_id);
  writer->WriteString(trace.selector);
  writer->WriteString(trace.status);
  writer->WriteString(trace.tier);
  writer->WriteDouble(trace.objective_gap);
  writer->WriteString(trace.priority);  // v4
  writer->WriteI32(trace.attempts);
  writer->WriteBool(trace.cache_hit);
  writer->WriteBool(trace.result_cache_hit);
  writer->WriteU64(trace.solver_iterations);
  writer->WriteU64(trace.nnls_nonconverged);
  writer->WriteU64(trace.intra_parallel_fanouts);
  writer->WriteU64(trace.intra_parallel_tasks);
  writer->WriteU32(static_cast<uint32_t>(trace.spans.size()));
  for (const TraceSpan& span : trace.spans) {
    writer->WriteString(span.name);
    writer->WriteDouble(span.seconds);
  }
  writer->WriteDouble(trace.queue_seconds);
  writer->WriteDouble(trace.backoff_seconds);
  writer->WriteDouble(trace.prepare_seconds);
  writer->WriteDouble(trace.solve_seconds);
  writer->WriteDouble(trace.alignment_seconds);  // v5
  writer->WriteDouble(trace.total_seconds);
}

Status DecodeTraceFrom(WireReader* reader, RequestTrace* trace) {
  COMPARESETS_ASSIGN_OR_RETURN(trace->request_id, reader->ReadU64());
  COMPARESETS_ASSIGN_OR_RETURN(trace->shard_id, reader->ReadU64());
  COMPARESETS_ASSIGN_OR_RETURN(trace->corpus_epoch, reader->ReadU64());
  COMPARESETS_ASSIGN_OR_RETURN(trace->ingest_records, reader->ReadU64());
  COMPARESETS_ASSIGN_OR_RETURN(trace->target_id, reader->ReadString());
  COMPARESETS_ASSIGN_OR_RETURN(trace->selector, reader->ReadString());
  COMPARESETS_ASSIGN_OR_RETURN(trace->status, reader->ReadString());
  COMPARESETS_ASSIGN_OR_RETURN(trace->tier, reader->ReadString());
  COMPARESETS_ASSIGN_OR_RETURN(trace->objective_gap, reader->ReadDouble());
  COMPARESETS_ASSIGN_OR_RETURN(trace->priority, reader->ReadString());
  COMPARESETS_ASSIGN_OR_RETURN(trace->attempts, reader->ReadI32());
  COMPARESETS_ASSIGN_OR_RETURN(trace->cache_hit, reader->ReadBool());
  COMPARESETS_ASSIGN_OR_RETURN(trace->result_cache_hit, reader->ReadBool());
  COMPARESETS_ASSIGN_OR_RETURN(trace->solver_iterations, reader->ReadU64());
  COMPARESETS_ASSIGN_OR_RETURN(trace->nnls_nonconverged, reader->ReadU64());
  COMPARESETS_ASSIGN_OR_RETURN(trace->intra_parallel_fanouts,
                               reader->ReadU64());
  COMPARESETS_ASSIGN_OR_RETURN(trace->intra_parallel_tasks,
                               reader->ReadU64());
  COMPARESETS_ASSIGN_OR_RETURN(uint32_t num_spans,
                               ReadCount(reader, "trace span"));
  trace->spans.clear();
  trace->spans.reserve(num_spans);
  for (uint32_t i = 0; i < num_spans; ++i) {
    TraceSpan span;
    COMPARESETS_ASSIGN_OR_RETURN(span.name, reader->ReadString());
    COMPARESETS_ASSIGN_OR_RETURN(span.seconds, reader->ReadDouble());
    trace->spans.push_back(std::move(span));
  }
  COMPARESETS_ASSIGN_OR_RETURN(trace->queue_seconds, reader->ReadDouble());
  COMPARESETS_ASSIGN_OR_RETURN(trace->backoff_seconds, reader->ReadDouble());
  COMPARESETS_ASSIGN_OR_RETURN(trace->prepare_seconds, reader->ReadDouble());
  COMPARESETS_ASSIGN_OR_RETURN(trace->solve_seconds, reader->ReadDouble());
  COMPARESETS_ASSIGN_OR_RETURN(trace->alignment_seconds, reader->ReadDouble());
  COMPARESETS_ASSIGN_OR_RETURN(trace->total_seconds, reader->ReadDouble());
  return Status::OK();
}

void EncodeSelectRequestTo(const SelectRequest& request, WireWriter* writer) {
  writer->WriteString(request.target_id);
  writer->WriteU32(static_cast<uint32_t>(request.comparative_ids.size()));
  for (const std::string& id : request.comparative_ids) {
    writer->WriteString(id);
  }
  writer->WriteString(request.selector);
  EncodeSelectorOptionsTo(request.options, writer);
  writer->WriteDouble(request.deadline_seconds);
  writer->WriteU8(static_cast<uint8_t>(request.priority));  // v4
}

Status DecodeSelectRequestFrom(WireReader* reader, SelectRequest* request) {
  COMPARESETS_ASSIGN_OR_RETURN(request->target_id, reader->ReadString());
  COMPARESETS_ASSIGN_OR_RETURN(uint32_t num_comparatives,
                               ReadCount(reader, "comparative id"));
  request->comparative_ids.clear();
  request->comparative_ids.reserve(num_comparatives);
  for (uint32_t i = 0; i < num_comparatives; ++i) {
    COMPARESETS_ASSIGN_OR_RETURN(std::string id, reader->ReadString());
    request->comparative_ids.push_back(std::move(id));
  }
  COMPARESETS_ASSIGN_OR_RETURN(request->selector, reader->ReadString());
  COMPARESETS_RETURN_NOT_OK(
      DecodeSelectorOptionsFrom(reader, &request->options));
  COMPARESETS_ASSIGN_OR_RETURN(request->deadline_seconds,
                               reader->ReadDouble());
  COMPARESETS_ASSIGN_OR_RETURN(request->priority, ReadPriority(reader));
  request->cancel = nullptr;  // Process-local; never on the wire.
  return Status::OK();
}

void EncodeSelectResponseTo(const SelectResponse& response,
                            WireWriter* writer) {
  writer->WriteString(response.target_id);
  writer->WriteU32(static_cast<uint32_t>(response.item_ids.size()));
  for (const std::string& id : response.item_ids) writer->WriteString(id);
  writer->WriteU32(static_cast<uint32_t>(response.selections.size()));
  for (const Selection& selection : response.selections) {
    writer->WriteU32(static_cast<uint32_t>(selection.size()));
    for (size_t index : selection) writer->WriteU64(index);
  }
  writer->WriteDouble(response.objective);
  EncodeTripleTo(response.alignment.target_vs_comparative, writer);
  EncodeTripleTo(response.alignment.among_items, writer);
  writer->WriteU64(response.alignment.target_pairs);
  writer->WriteU64(response.alignment.among_pairs);
  writer->WriteBool(response.cache_hit);
  writer->WriteBool(response.result_cache_hit);
  writer->WriteDouble(response.prepare_seconds);
  writer->WriteDouble(response.solve_seconds);
  writer->WriteU8(static_cast<uint8_t>(response.tier));
  writer->WriteDouble(response.objective_gap);
  EncodeTraceTo(response.trace, writer);
}

Status DecodeSelectResponseFrom(WireReader* reader,
                                SelectResponse* response) {
  COMPARESETS_ASSIGN_OR_RETURN(response->target_id, reader->ReadString());
  COMPARESETS_ASSIGN_OR_RETURN(uint32_t num_items,
                               ReadCount(reader, "item id"));
  response->item_ids.clear();
  response->item_ids.reserve(num_items);
  for (uint32_t i = 0; i < num_items; ++i) {
    COMPARESETS_ASSIGN_OR_RETURN(std::string id, reader->ReadString());
    response->item_ids.push_back(std::move(id));
  }
  COMPARESETS_ASSIGN_OR_RETURN(uint32_t num_selections,
                               ReadCount(reader, "selection"));
  response->selections.clear();
  response->selections.reserve(num_selections);
  for (uint32_t i = 0; i < num_selections; ++i) {
    COMPARESETS_ASSIGN_OR_RETURN(uint32_t num_reviews,
                                 ReadCount(reader, "selected review"));
    Selection selection;
    selection.reserve(num_reviews);
    for (uint32_t r = 0; r < num_reviews; ++r) {
      COMPARESETS_ASSIGN_OR_RETURN(uint64_t index, reader->ReadU64());
      selection.push_back(static_cast<size_t>(index));
    }
    response->selections.push_back(std::move(selection));
  }
  COMPARESETS_ASSIGN_OR_RETURN(response->objective, reader->ReadDouble());
  COMPARESETS_RETURN_NOT_OK(
      DecodeTripleFrom(reader, &response->alignment.target_vs_comparative));
  COMPARESETS_RETURN_NOT_OK(
      DecodeTripleFrom(reader, &response->alignment.among_items));
  COMPARESETS_ASSIGN_OR_RETURN(uint64_t target_pairs, reader->ReadU64());
  response->alignment.target_pairs = static_cast<size_t>(target_pairs);
  COMPARESETS_ASSIGN_OR_RETURN(uint64_t among_pairs, reader->ReadU64());
  response->alignment.among_pairs = static_cast<size_t>(among_pairs);
  COMPARESETS_ASSIGN_OR_RETURN(response->cache_hit, reader->ReadBool());
  COMPARESETS_ASSIGN_OR_RETURN(response->result_cache_hit,
                               reader->ReadBool());
  COMPARESETS_ASSIGN_OR_RETURN(response->prepare_seconds,
                               reader->ReadDouble());
  COMPARESETS_ASSIGN_OR_RETURN(response->solve_seconds, reader->ReadDouble());
  COMPARESETS_ASSIGN_OR_RETURN(response->tier, ReadTier(reader));
  COMPARESETS_ASSIGN_OR_RETURN(response->objective_gap, reader->ReadDouble());
  COMPARESETS_RETURN_NOT_OK(DecodeTraceFrom(reader, &response->trace));
  return Status::OK();
}

void EncodeSelectResultTo(const Result<SelectResponse>& result,
                          WireWriter* writer) {
  writer->WriteBool(result.ok());
  if (result.ok()) {
    EncodeSelectResponseTo(result.value(), writer);
  } else {
    EncodeStatusTo(result.status(), writer);
  }
}

Result<Result<SelectResponse>> DecodeSelectResultFrom(WireReader* reader) {
  COMPARESETS_ASSIGN_OR_RETURN(bool ok, reader->ReadBool());
  if (!ok) {
    Status status;
    COMPARESETS_RETURN_NOT_OK(DecodeStatusFrom(reader, &status));
    if (status.ok()) {
      return Status::ParseError("select result marked failed carries OK");
    }
    return Result<SelectResponse>(std::move(status));
  }
  SelectResponse response;
  COMPARESETS_RETURN_NOT_OK(DecodeSelectResponseFrom(reader, &response));
  return Result<SelectResponse>(std::move(response));
}

}  // namespace

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kSelectRequest:
      return "select_request";
    case MessageType::kSelectResponse:
      return "select_response";
    case MessageType::kBatchRequest:
      return "batch_request";
    case MessageType::kBatchResponse:
      return "batch_response";
    case MessageType::kHealthRequest:
      return "health_request";
    case MessageType::kHealthResponse:
      return "health_response";
    case MessageType::kShutdownRequest:
      return "shutdown_request";
    case MessageType::kShutdownResponse:
      return "shutdown_response";
    case MessageType::kError:
      return "error";
  }
  return "unknown";
}

void EncodeStatusTo(const Status& status, WireWriter* writer) {
  writer->WriteU16(static_cast<uint16_t>(status.code()));
  writer->WriteString(status.message());
}

Status DecodeStatusFrom(WireReader* reader, Status* out) {
  COMPARESETS_ASSIGN_OR_RETURN(uint16_t code, reader->ReadU16());
  if (code > kMaxStatusCode) {
    return Status::ParseError("unknown status code on the wire: " +
                              std::to_string(code));
  }
  COMPARESETS_ASSIGN_OR_RETURN(std::string message, reader->ReadString());
  *out = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

std::string EncodeSelectRequest(const SelectRequest& request) {
  WireWriter writer;
  EncodeSelectRequestTo(request, &writer);
  return writer.Take();
}

Result<SelectRequest> DecodeSelectRequest(std::string_view payload) {
  WireReader reader(payload);
  SelectRequest request;
  COMPARESETS_RETURN_NOT_OK(DecodeSelectRequestFrom(&reader, &request));
  COMPARESETS_RETURN_NOT_OK(reader.ExpectFullyConsumed("select request"));
  return request;
}

std::string EncodeSelectResult(const Result<SelectResponse>& result) {
  WireWriter writer;
  EncodeSelectResultTo(result, &writer);
  return writer.Take();
}

Result<Result<SelectResponse>> DecodeSelectResult(std::string_view payload) {
  WireReader reader(payload);
  COMPARESETS_ASSIGN_OR_RETURN(Result<SelectResponse> result,
                               DecodeSelectResultFrom(&reader));
  COMPARESETS_RETURN_NOT_OK(reader.ExpectFullyConsumed("select result"));
  return result;
}

std::string EncodeBatchRequest(const std::vector<SelectRequest>& requests) {
  WireWriter writer;
  writer.WriteU32(static_cast<uint32_t>(requests.size()));
  for (const SelectRequest& request : requests) {
    EncodeSelectRequestTo(request, &writer);
  }
  return writer.Take();
}

Result<std::vector<SelectRequest>> DecodeBatchRequest(
    std::string_view payload) {
  WireReader reader(payload);
  COMPARESETS_ASSIGN_OR_RETURN(uint32_t count,
                               ReadCount(&reader, "batch request"));
  std::vector<SelectRequest> requests;
  requests.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    SelectRequest request;
    COMPARESETS_RETURN_NOT_OK(DecodeSelectRequestFrom(&reader, &request));
    requests.push_back(std::move(request));
  }
  COMPARESETS_RETURN_NOT_OK(reader.ExpectFullyConsumed("batch request"));
  return requests;
}

std::string EncodeBatchResponse(
    const std::vector<Result<SelectResponse>>& results) {
  WireWriter writer;
  writer.WriteU32(static_cast<uint32_t>(results.size()));
  for (const Result<SelectResponse>& result : results) {
    EncodeSelectResultTo(result, &writer);
  }
  return writer.Take();
}

Result<std::vector<Result<SelectResponse>>> DecodeBatchResponse(
    std::string_view payload) {
  WireReader reader(payload);
  COMPARESETS_ASSIGN_OR_RETURN(uint32_t count,
                               ReadCount(&reader, "batch response"));
  std::vector<Result<SelectResponse>> results;
  results.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    COMPARESETS_ASSIGN_OR_RETURN(Result<SelectResponse> result,
                                 DecodeSelectResultFrom(&reader));
    results.push_back(std::move(result));
  }
  COMPARESETS_RETURN_NOT_OK(reader.ExpectFullyConsumed("batch response"));
  return results;
}

std::string EncodeShardHealth(const ShardHealth& health) {
  WireWriter writer;
  writer.WriteBool(health.ready);
  writer.WriteU64(health.shard_id);
  writer.WriteString(health.state);
  writer.WriteString(health.range.begin);
  writer.WriteString(health.range.end);
  writer.WriteU64(health.corpus_epoch);
  writer.WriteU64(health.num_instances);
  writer.WriteU64(health.num_products);
  return writer.Take();
}

Result<ShardHealth> DecodeShardHealth(std::string_view payload) {
  WireReader reader(payload);
  ShardHealth health;
  COMPARESETS_ASSIGN_OR_RETURN(health.ready, reader.ReadBool());
  COMPARESETS_ASSIGN_OR_RETURN(health.shard_id, reader.ReadU64());
  COMPARESETS_ASSIGN_OR_RETURN(health.state, reader.ReadString());
  COMPARESETS_ASSIGN_OR_RETURN(health.range.begin, reader.ReadString());
  COMPARESETS_ASSIGN_OR_RETURN(health.range.end, reader.ReadString());
  COMPARESETS_ASSIGN_OR_RETURN(health.corpus_epoch, reader.ReadU64());
  COMPARESETS_ASSIGN_OR_RETURN(health.num_instances, reader.ReadU64());
  COMPARESETS_ASSIGN_OR_RETURN(health.num_products, reader.ReadU64());
  COMPARESETS_RETURN_NOT_OK(reader.ExpectFullyConsumed("shard health"));
  return health;
}

std::string EncodeErrorPayload(const Status& status) {
  WireWriter writer;
  EncodeStatusTo(status, &writer);
  return writer.Take();
}

Status DecodeErrorPayload(std::string_view payload, Status* out) {
  WireReader reader(payload);
  COMPARESETS_RETURN_NOT_OK(DecodeStatusFrom(&reader, out));
  COMPARESETS_RETURN_NOT_OK(reader.ExpectFullyConsumed("error payload"));
  return Status::OK();
}

}  // namespace comparesets
