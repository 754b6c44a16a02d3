#include "mining/tree_io.h"

#include <fstream>
#include <sstream>

namespace sqlclass {

namespace {

constexpr const char* kMagic = "sqlclass-tree";
constexpr int kVersion = 1;

/// %-escapes whitespace, '%' and newlines so tokens stay space-separated.
std::string Escape(const std::string& text) {
  std::string out;
  for (unsigned char c : text) {
    if (c == '%' || c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02X", c);
      out += buf;
    } else {
      out += static_cast<char>(c);
    }
  }
  return out.empty() ? "%00" : out;  // empty token placeholder
}

StatusOr<std::string> Unescape(const std::string& token) {
  if (token == "%00") return std::string();
  std::string out;
  for (size_t i = 0; i < token.size(); ++i) {
    if (token[i] != '%') {
      out += token[i];
      continue;
    }
    if (i + 2 >= token.size()) {
      return Status::ParseError("truncated escape in: " + token);
    }
    const std::string hex = token.substr(i + 1, 2);
    char* end = nullptr;
    const long value = std::strtol(hex.c_str(), &end, 16);
    if (end == nullptr || *end != '\0') {
      return Status::ParseError("bad escape in: " + token);
    }
    out += static_cast<char>(value);
    i += 2;
  }
  return out;
}

/// Edge encoding: three tokens `<kind> <column> <value>`, kind one of
/// none / eq / ne; column is the %-escaped attribute *name* (edges in
/// freshly grown trees may be unbound, so indexes are not reliable).
std::string EncodeEdge(const Expr* edge) {
  if (edge == nullptr) return "none - 0";
  switch (edge->kind()) {
    case ExprKind::kColumnEq:
      return "eq " + Escape(edge->column()) + " " +
             std::to_string(edge->literal());
    case ExprKind::kColumnNe:
      return "ne " + Escape(edge->column()) + " " +
             std::to_string(edge->literal());
    default:
      return "none - 0";  // trees only grow eq/ne edges
  }
}

StatusOr<std::unique_ptr<Expr>> DecodeEdge(const std::string& kind,
                                           const std::string& column_token,
                                           Value value,
                                           const Schema& schema) {
  if (kind == "none") return std::unique_ptr<Expr>();
  SQLCLASS_ASSIGN_OR_RETURN(std::string name, Unescape(column_token));
  if (schema.ColumnIndex(name) < 0) {
    return Status::ParseError("edge names unknown column: " + name);
  }
  if (kind == "eq") return Expr::ColEq(name, value);
  if (kind == "ne") return Expr::ColNe(name, value);
  return Status::ParseError("bad edge kind: " + kind);
}

/// Bytes of `in` not read yet. A list element takes at least two of them (a
/// digit and a separator), so half of them bounds any list length the input
/// can still back, before anything is sized from that length.
size_t BytesLeft(std::istringstream& in, size_t size) {
  const std::streamoff pos = in.tellg();
  return pos < 0 ? 0 : size - static_cast<size_t>(pos);
}

/// Reads a list length that the rest of the input can back.
bool ReadLength(std::istringstream& in, size_t size, size_t* length) {
  long long n = 0;
  if (!(in >> n) || n < 0 ||
      static_cast<unsigned long long>(n) > BytesLeft(in, size) / 2) {
    return false;
  }
  *length = static_cast<size_t>(n);
  return true;
}

}  // namespace

StatusOr<std::string> SerializeTree(const DecisionTree& tree) {
  if (tree.num_nodes() == 0) return Status::InvalidArgument("empty tree");
  if (!tree.ActiveNodes().empty()) {
    return Status::InvalidArgument("tree still has active nodes");
  }
  const Schema& schema = tree.schema();
  std::ostringstream out;
  out << kMagic << " " << kVersion << "\n";
  out << "schema " << schema.num_columns() << " " << schema.class_column()
      << "\n";
  for (int c = 0; c < schema.num_columns(); ++c) {
    const AttributeDef& attr = schema.attribute(c);
    out << "column " << Escape(attr.name) << " " << attr.cardinality;
    for (const std::string& label : attr.labels) {
      out << " " << Escape(label);
    }
    out << "\n";
  }
  out << "nodes " << tree.num_nodes() << "\n";
  for (int i = 0; i < tree.num_nodes(); ++i) {
    const TreeNode& node = tree.node(i);
    out << "node " << node.id << " " << node.parent << " "
        << static_cast<int>(node.state) << " "
        << static_cast<int>(node.leaf_reason) << " " << node.depth << " "
        << node.data_size << " " << node.majority_class << " "
        << node.split_attr << " " << node.split_value << " "
        << (node.multiway ? 1 : 0) << " "
        << EncodeEdge(node.edge_predicate.get()) << " "
        << node.children.size();
    for (int child : node.children) out << " " << child;
    out << " " << node.class_counts.size();
    for (int64_t count : node.class_counts) out << " " << count;
    out << "\n";
  }
  out << "end\n";
  return out.str();
}

StatusOr<DecisionTree> DeserializeTree(const std::string& text) {
  std::istringstream in(text);
  std::string word;
  int version = 0;
  if (!(in >> word >> version) || word != kMagic || version != kVersion) {
    return Status::ParseError("not a sqlclass-tree v1 file");
  }
  int num_columns = 0;
  int class_column = -1;
  if (!(in >> word >> num_columns >> class_column) || word != "schema" ||
      num_columns < 1 ||
      static_cast<size_t>(num_columns) > BytesLeft(in, text.size()) / 2) {
    return Status::ParseError("bad schema header");
  }
  std::vector<AttributeDef> attrs;
  attrs.reserve(num_columns);
  {
    std::string rest;
    std::getline(in, rest);  // consume end of schema line
  }
  for (int c = 0; c < num_columns; ++c) {
    std::string line;
    if (!std::getline(in, line)) return Status::ParseError("missing column");
    std::istringstream column_in(line);
    AttributeDef attr;
    std::string name_token;
    if (!(column_in >> word >> name_token >> attr.cardinality) ||
        word != "column") {
      return Status::ParseError("bad column line: " + line);
    }
    SQLCLASS_ASSIGN_OR_RETURN(attr.name, Unescape(name_token));
    std::string label_token;
    while (column_in >> label_token) {
      SQLCLASS_ASSIGN_OR_RETURN(std::string label, Unescape(label_token));
      attr.labels.push_back(std::move(label));
    }
    if (!attr.labels.empty() &&
        attr.labels.size() != static_cast<size_t>(attr.cardinality)) {
      return Status::ParseError("label count mismatch for " + attr.name);
    }
    attrs.push_back(std::move(attr));
  }
  Schema schema(std::move(attrs), class_column);
  SQLCLASS_RETURN_IF_ERROR(schema.Validate());

  int node_count = 0;
  if (!(in >> word >> node_count) || word != "nodes" || node_count < 1) {
    return Status::ParseError("bad nodes header");
  }
  std::deque<TreeNode> nodes;
  for (int i = 0; i < node_count; ++i) {
    TreeNode node;
    int state = 0;
    int reason = 0;
    int multiway = 0;
    std::string edge_kind;
    std::string edge_column;
    Value edge_value = 0;
    size_t num_children = 0;
    if (!(in >> word >> node.id >> node.parent >> state >> reason >>
          node.depth >> node.data_size >> node.majority_class >>
          node.split_attr >> node.split_value >> multiway >> edge_kind >>
          edge_column >> edge_value) ||
        word != "node" || !ReadLength(in, text.size(), &num_children)) {
      return Status::ParseError("bad node line " + std::to_string(i));
    }
    if (state < 0 || state > 2 || reason < 0 || reason > 5) {
      return Status::ParseError("bad node enums at " + std::to_string(i));
    }
    node.state = static_cast<NodeState>(state);
    node.leaf_reason = static_cast<LeafReason>(reason);
    node.multiway = multiway != 0;
    SQLCLASS_ASSIGN_OR_RETURN(
        node.edge_predicate,
        DecodeEdge(edge_kind, edge_column, edge_value, schema));
    node.children.resize(num_children);
    for (size_t k = 0; k < num_children; ++k) {
      if (!(in >> node.children[k])) {
        return Status::ParseError("truncated children list");
      }
    }
    size_t num_counts = 0;
    if (!ReadLength(in, text.size(), &num_counts)) {
      return Status::ParseError("bad class count list at " +
                                std::to_string(i));
    }
    node.class_counts.resize(num_counts);
    for (size_t k = 0; k < num_counts; ++k) {
      if (!(in >> node.class_counts[k])) {
        return Status::ParseError("truncated class counts");
      }
    }
    nodes.push_back(std::move(node));
  }
  if (!(in >> word) || word != "end") {
    return Status::ParseError("missing end marker");
  }
  return DecisionTree::FromNodes(schema, std::move(nodes));
}

Status SaveTree(const DecisionTree& tree, const std::string& path) {
  SQLCLASS_ASSIGN_OR_RETURN(std::string text, SerializeTree(tree));
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot create " + path);
  out << text;
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

StatusOr<DecisionTree> LoadTree(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return DeserializeTree(buffer.str());
}

}  // namespace sqlclass
