//! A minimal blocking client for the td-serve protocol.
//!
//! One TCP connection, synchronous request/response. `tdc query`, the
//! integration tests and the throughput bench all drive the server
//! through this type. Its lines go through `serde_json::line`, the
//! framing the server and td-shard use too.

use std::io::{BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

use serde_json::line;
use tdac_core::TruthQuery;

use crate::protocol::{Request, RequestOp, Response, WireClaim};

/// Client-side failures: transport errors, or a response line that is
/// not valid protocol JSON (a server bug or a non-td-serve endpoint).
#[derive(Debug)]
pub enum ClientError {
    /// The underlying socket failed (including EOF mid-response).
    Io(std::io::Error),
    /// The server's bytes did not parse as a [`Response`].
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(msg) => {
                write!(f, "malformed server response: {msg}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A blocking protocol client over one TCP connection.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    /// The response line being read, reused across requests.
    buf: Vec<u8>,
    next_id: u64,
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
            buf: Vec::new(),
            next_id: 0,
        })
    }

    /// Sends one request and blocks for its response. Ids are assigned
    /// sequentially per connection and verified on the way back.
    pub fn request(
        &mut self,
        op: RequestOp,
        deadline_ms: Option<u64>,
    ) -> Result<Response, ClientError> {
        self.next_id += 1;
        let request = Request {
            id: self.next_id,
            deadline_ms,
            op,
        };
        line::write(&mut self.writer, &request)?;
        let response = self.read_response()?;
        if response.id != request.id {
            return Err(ClientError::Protocol(format!(
                "response id {} does not match request id {}",
                response.id, request.id
            )));
        }
        Ok(response)
    }

    /// Sends a truth query.
    pub fn query(
        &mut self,
        query: TruthQuery,
        deadline_ms: Option<u64>,
    ) -> Result<Response, ClientError> {
        self.request(RequestOp::Query(query), deadline_ms)
    }

    /// Sends an ingest batch.
    pub fn ingest(
        &mut self,
        claims: Vec<WireClaim>,
        deadline_ms: Option<u64>,
    ) -> Result<Response, ClientError> {
        self.request(RequestOp::Ingest(claims), deadline_ms)
    }

    /// Requests server statistics.
    pub fn stats(&mut self) -> Result<Response, ClientError> {
        self.request(RequestOp::Stats, None)
    }

    /// Sends raw bytes (not necessarily valid protocol) and reads one
    /// response line back. Test hook for malformed-input coverage.
    pub fn send_raw(&mut self, bytes: &[u8]) -> Result<Response, ClientError> {
        self.writer.write_all(bytes)?;
        self.read_response()
    }

    /// Reads and decodes one response line.
    fn read_response(&mut self) -> Result<Response, ClientError> {
        self.buf.clear();
        if !line::read(&mut self.reader, &mut self.buf, usize::MAX)? {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            )));
        }
        line::decode(&self.buf).map_err(|e| ClientError::Protocol(e.to_string()))
    }
}
